"""3-D block domain decomposition of the spherical grid.

MAS decomposes its logically rectangular (r, theta, phi) grid into blocks,
one per MPI rank. phi is periodic (full 2*pi), so every rank has a phi
neighbour even in single-rank runs -- which is why the paper's Fig. 3 shows
nonzero "MPI" time at 1 GPU (buffer loading/unloading for the periodic
wrap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


def dims_create(nranks: int, ndims: int = 3, *, weights: tuple[float, ...] | None = None) -> tuple[int, ...]:
    """Factor ``nranks`` into ``ndims`` balanced factors (MPI_Dims_create).

    ``weights`` bias the split toward axes with more cells: larger weight
    means that axis prefers more ranks. The result is sorted so the largest
    factor lands on the heaviest axis.
    """
    if nranks < 1:
        raise ValueError("need at least one rank")
    if ndims < 1:
        raise ValueError("need at least one dimension")
    if weights is None:
        weights = (1.0,) * ndims
    if len(weights) != ndims:
        raise ValueError("one weight per dimension required")
    if min(weights) <= 0:
        raise ValueError("weights must be positive")

    # Find the factorization minimizing the max (ranks_i / weight_i) ratio,
    # i.e. the most balanced weighted split. nranks is small (<= 64 in the
    # paper's runs) so exhaustive recursion is fine.
    best: tuple[float, tuple[int, ...]] | None = None

    def rec(remaining: int, dims_left: int, acc: tuple[int, ...]) -> None:
        nonlocal best
        if dims_left == 1:
            cand = acc + (remaining,)
            # Assign factors to axes: largest factor -> largest weight.
            order = sorted(range(ndims), key=lambda i: -weights[i])
            assigned = [1] * ndims
            for f, axis in zip(sorted(cand, reverse=True), order):
                assigned[axis] = f
            score = max(assigned[i] / weights[i] for i in range(ndims))
            key = (score, tuple(assigned))
            if best is None or key < (best[0], best[1]):
                best = (score, tuple(assigned))
            return
        f = 1
        while f <= remaining:
            if remaining % f == 0:
                rec(remaining // f, dims_left - 1, acc + (f,))
            f += 1

    rec(nranks, ndims, ())
    assert best is not None
    return best[1]


def split_extent(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous nearly-equal pieces."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < parts:
        raise ValueError(f"cannot split extent {n} into {parts} nonempty parts")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class Decomposition3D:
    """Block decomposition of a (nr, nt, np) grid over ``nranks`` ranks.

    ``periodic`` marks wrap-around axes; MAS's grid is periodic in phi
    (axis 2) only.
    """

    global_shape: tuple[int, int, int]
    nranks: int
    periodic: tuple[bool, bool, bool] = (False, False, True)
    dims: tuple[int, int, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError("need at least one rank")
        if any(n < 1 for n in self.global_shape):
            raise ValueError("grid extents must be positive")
        if self.dims is None:
            dims = dims_create(
                self.nranks, 3, weights=tuple(float(n) for n in self.global_shape)
            )
            object.__setattr__(self, "dims", dims)
        if self.dims[0] * self.dims[1] * self.dims[2] != self.nranks:
            raise ValueError(f"dims {self.dims} do not multiply to {self.nranks}")
        for n, p in zip(self.global_shape, self.dims):
            if n < p:
                raise ValueError(f"extent {n} cannot host {p} ranks")
        # Halo exchanges ask for the same neighbours, bounds and shapes on
        # every message; the answers are fixed by the fields above.
        # Neighbours by [rank][axis][low, high]:
        object.__setattr__(
            self,
            "_neighbor_table",
            tuple(
                tuple(
                    tuple(self._find_neighbor(rank, axis, d) for d in (-1, 1))
                    for axis in range(3)
                )
                for rank in range(self.nranks)
            ),
        )
        splits = [split_extent(n, p) for n, p in zip(self.global_shape, self.dims)]
        bounds = tuple(
            tuple(split[c] for split, c in zip(splits, self.coords(rank)))
            for rank in range(self.nranks)
        )
        object.__setattr__(self, "_bounds_table", bounds)
        object.__setattr__(
            self,
            "_shape_table",
            tuple(tuple(hi - lo for lo, hi in b) for b in bounds),
        )

    # -- rank <-> coords ----------------------------------------------------

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Cartesian coordinates of ``rank`` (row-major, like MPI_Cart)."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range")
        pr, pt, pp = self.dims
        return (rank // (pt * pp), (rank // pp) % pt, rank % pp)

    def rank_of(self, coords: tuple[int, int, int]) -> int:
        """Inverse of :meth:`coords`."""
        pr, pt, pp = self.dims
        cr, ct, cp = coords
        if not (0 <= cr < pr and 0 <= ct < pt and 0 <= cp < pp):
            raise IndexError(f"coords {coords} out of range for dims {self.dims}")
        return (cr * pt + ct) * pp + cp

    # -- subdomains ----------------------------------------------------------

    def bounds(self, rank: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Global index [start, stop) per axis for this rank's block."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range")
        return self._bounds_table[rank]

    def local_shape(self, rank: int) -> tuple[int, int, int]:
        """Interior cell counts of this rank's block."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range")
        return self._shape_table[rank]

    def local_cells(self, rank: int) -> int:
        """Interior cell count of the block."""
        s = self.local_shape(rank)
        return s[0] * s[1] * s[2]

    # -- neighbours ------------------------------------------------------------

    def neighbor(self, rank: int, axis: int, direction: int) -> int | None:
        """Neighbouring rank across one face, honouring periodicity."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        if direction not in (-1, 1):
            raise ValueError("direction must be -1 or +1")
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range")
        return self._neighbor_table[rank][axis][direction > 0]

    def _find_neighbor(self, rank: int, axis: int, direction: int) -> int | None:
        c = list(self.coords(rank))
        c[axis] += direction
        if not 0 <= c[axis] < self.dims[axis]:
            if not self.periodic[axis]:
                return None
            c[axis] %= self.dims[axis]
        return self.rank_of(tuple(c))  # type: ignore[arg-type]

    def face_cells(self, rank: int, axis: int) -> int:
        """Cells on one face of the block (halo message size per depth-1)."""
        s = self.local_shape(rank)
        return (s[0] * s[1] * s[2]) // s[axis]

    def iter_ranks(self) -> Iterator[int]:
        """All rank ids."""
        return iter(range(self.nranks))
