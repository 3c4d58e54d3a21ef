"""Non-uniform staggered spherical grids.

Geometry of the MAS discretization (paper SIII): a logically rectangular
grid in (r, theta, phi), non-uniform in r and theta, periodic in phi, with
a small polar cutout (theta in [eps, pi - eps]) as in global coronal
models. Magnetic field components live on cell faces (constrained
transport); plasma variables live at cell centers.

:class:`SphericalGrid` is the global grid; :class:`LocalGrid` is one MPI
rank's block with ghost-extended coordinates and cached metric arrays
(face areas, cell volumes, edge lengths) used by the finite-volume
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.mas.stretch import geometric_spacing, uniform_spacing
from repro.mpi.decomp import Decomposition3D


@dataclass(frozen=True)
class SphericalGrid:
    """Global grid defined by its edge coordinate arrays."""

    r_edges: np.ndarray
    t_edges: np.ndarray
    p_edges: np.ndarray

    def __post_init__(self) -> None:
        for name, e in (("r", self.r_edges), ("t", self.t_edges), ("p", self.p_edges)):
            if e.ndim != 1 or e.size < 2:
                raise ValueError(f"{name}_edges must be a 1-D array of >= 2 edges")
            if np.any(np.diff(e) <= 0):
                raise ValueError(f"{name}_edges must be strictly increasing")
        if self.r_edges[0] <= 0:
            raise ValueError("inner radius must be positive")
        if self.t_edges[0] <= 0 or self.t_edges[-1] >= np.pi:
            raise ValueError("theta must exclude the poles (polar cutout)")
        if not np.isclose(self.p_edges[-1] - self.p_edges[0], 2 * np.pi):
            raise ValueError("phi must span exactly 2*pi (periodic)")

    @classmethod
    def build(
        cls,
        shape: tuple[int, int, int],
        *,
        r_range: tuple[float, float] = (1.0, 2.5),
        r_ratio: float = 1.03,
        pole_cutout: float = 0.15,
    ) -> "SphericalGrid":
        """Standard coronal grid: stretched r, uniform theta/phi."""
        nr, nt, np_ = shape
        return cls(
            r_edges=geometric_spacing(r_range[0], r_range[1], nr, r_ratio),
            t_edges=uniform_spacing(pole_cutout, np.pi - pole_cutout, nt),
            p_edges=uniform_spacing(0.0, 2 * np.pi, np_),
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        """Cell counts (nr, nt, np)."""
        return (self.r_edges.size - 1, self.t_edges.size - 1, self.p_edges.size - 1)


def _extend_edges(edges: np.ndarray, g: int, *, periodic: bool, span: float = 0.0) -> np.ndarray:
    """Ghost-extend an edge array by ``g`` edges on each side.

    Periodic axes wrap widths across the ``span``; others mirror the
    boundary cell widths outward.
    """
    if g < 0:
        raise ValueError("ghost depth cannot be negative")
    if g == 0:
        return edges.copy()
    widths = np.diff(edges)
    if periodic:
        lo_w = widths[-g:]
        hi_w = widths[:g]
    else:
        lo_w = widths[:g][::-1]
        hi_w = widths[-g:][::-1]
    lo = edges[0] - np.cumsum(lo_w[::-1])[::-1]
    hi = edges[-1] + np.cumsum(hi_w)
    return np.concatenate([lo, edges, hi])


class FlatStencil(NamedTuple):
    """What the centred stencils read of a :class:`LocalGrid`, on its flat index.

    The ghosted block's C-order flat index ``n = (i NT + j) NP + k`` puts the
    neighbour along axis ``a`` at the fixed offset ``step[a] = (NT NP, NP, 1)``;
    a face is named by its lower cell, so face arrays are indexed like cell
    arrays. The stencils compute the cells ``[lo, hi)``, first interior cell
    to last, so along ``a`` they read the faces ``faces[a][0]`` =
    ``[lo - step[a], hi)``, whose upper cells are ``faces[a][1]`` (both empty
    on a block without interior cells). ``spacing`` and ``area`` are flat
    face arrays, spacing 1 and area 0 on a face no interior cell bounds (a
    transverse rim, or the wrap to the next row or plane): its flux is an
    exact zero, read only by rim cells, which the operators zero.
    ``weights`` are the interpolation weights ``(1 - w, w)`` per axis on
    the faces of r planes ``0 .. NR-2`` viewed ``(NR-1, NT NP)``: r's a
    column, theta's and phi's one plane row ``(1, NT NP)``. ``volume`` is cut
    to ``[lo, hi)``.
    """

    step: tuple[int, int, int]
    lo: int
    hi: int
    faces: tuple[tuple[slice, slice], ...]
    spacing: tuple[np.ndarray, np.ndarray, np.ndarray]
    area: tuple[np.ndarray, np.ndarray, np.ndarray]
    weights: tuple[tuple[np.ndarray, np.ndarray], ...]
    volume: np.ndarray


class FlatScratch(NamedTuple):
    """Work arrays of the centred stencils on a group of ``G`` blocks:
    ``coeff`` ``(3, G, B, N)`` (the harmonic face coefficients), ``flux``
    and ``cells`` ``(G, B, N)``, ``acc`` ``(G, B, hi - lo)``."""

    coeff: np.ndarray
    flux: np.ndarray
    cells: np.ndarray
    acc: np.ndarray


def stack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``arrays`` as the rows of one ``(G, ...)`` array: a view of the one
    array of a group of one, a stacked copy otherwise."""
    if len(arrays) == 1:
        return arrays[0][np.newaxis]
    return np.stack(arrays)


def gradient_coefficients(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """What ``np.gradient(f, x)`` multiplies the interior of ``f`` by.

    With ``dx = diff(x)`` all equal (numpy's own test, ``dx == dx[0]``) it
    is ``((f[2:] - f[:-2]) / (2 dx))``: one coefficient, ``2. * dx[0]``.
    Otherwise ``a f[:-2] + b f[1:-1] + c f[2:]`` with numpy's ``a, b, c``,
    each ``len(x) - 2`` long. The expressions are numpy's, so the interior
    of a gradient built from them is ``np.gradient``'s to the last bit.
    """
    dx = np.diff(x)
    if (dx == dx[0]).all():
        return (2.0 * dx[0],)
    dx1, dx2 = dx[:-1], dx[1:]
    return (
        -(dx2) / (dx1 * (dx1 + dx2)),
        (dx2 - dx1) / (dx1 * dx2),
        dx1 / (dx2 * (dx1 + dx2)),
    )


def edge_length(axis: int, re: np.ndarray, te: np.ndarray, pe: np.ndarray) -> np.ndarray:
    """Lengths of the ghosted edges along ``axis`` from the ghosted edge
    coordinates: r-edges ``(nrg, ntg+1, npg+1)``, theta-edges
    ``(nrg+1, ntg, npg+1)``, phi-edges ``(nrg+1, ntg+1, npg)``."""
    if axis == 0:
        dr = np.diff(re)
        return np.broadcast_to(dr[:, None, None], (dr.size, te.size, pe.size)).copy()
    if axis == 1:
        return re[:, None, None] * np.diff(te)[None, :, None] * np.ones_like(pe)[None, None, :]
    return re[:, None, None] * np.sin(te)[None, :, None] * np.diff(pe)[None, None, :]


#: What a group keeps of each block's grid to build its staggered metrics:
#: the ghosted 1-D coordinates and the face areas.
_SOURCES = ("re", "te", "pe", "rc", "tc", "pc", "area_r", "area_t", "area_p")

#: The 1-D metrics :meth:`GridGroup.column` stacks: per name, its spatial
#: axis and how it is built from a block's coordinates.
_COLUMNS = {
    "rc": (0, lambda c: c["rc"]),
    "re": (0, lambda c: c["re"]),
    "d_rc": (0, lambda c: np.diff(c["rc"])),
    "sin_tc": (1, lambda c: np.sin(c["tc"])),
    "sin_te": (1, lambda c: np.sin(c["te"])),
    "d_tc": (1, lambda c: np.diff(c["tc"])),
    "d_pc": (2, lambda c: np.diff(c["pc"])),
}


def _on_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """A 1-D (or scalar) ``x`` viewed 3-D, lying on spatial ``axis``."""
    shape = [1, 1, 1]
    shape[axis] = -1
    return np.reshape(x, shape)


class GridGroup:
    """``G`` blocks of one ghosted shape as one operand of the operators:
    their :class:`FlatStencil` metrics stacked ``(G, 1, ...)``, so they
    broadcast against ``(G, B, N)`` rows, one scratch, and, built on first
    use, the staggered operators' metrics stacked ``(G, 1, NR, NT, NP)``
    (:meth:`column`, :attr:`edge_lengths`, :attr:`face_areas`,
    :meth:`gradient`), which broadcast against ``(G, B, ...)`` blocks. The
    ``1`` is the member axis: a ``(G, ...)`` block without one is viewed
    ``(G, 1, ...)`` (:meth:`members`) before it meets a metric, so a metric
    never broadcasts its rank axis against members.

    A group of one (:attr:`LocalGrid.group`) holds views of its grid's
    metrics; a larger group (:meth:`of`) holds one stacked copy, and gives
    each of its grids a new group of one built as a row of it, whose
    scratch is a view of its row, so no scratch is held twice. It holds
    arrays only: no grid, so nothing stored on a grid or a model refers
    back to them (docs/PHYSICS.md S3a).
    """

    __slots__ = ("size", "flat", "_sources", "_metrics", "_scratch", "_row_of")

    def __init__(
        self, grids: Sequence["LocalGrid"], row_of: tuple["GridGroup", int] | None = None
    ) -> None:
        flats = [g.flat for g in grids]
        first = flats[0]
        if any(f.step != first.step for f in flats):
            raise ValueError("a grid group needs blocks of one ghosted shape")

        def stack(arrays: list[np.ndarray]) -> np.ndarray:
            return stack_rows(arrays)[:, np.newaxis]

        def each(pick) -> tuple[np.ndarray, ...]:
            return tuple(stack([pick(f)[a] for f in flats]) for a in range(3))

        self.size = len(flats)
        self.flat = first._replace(
            spacing=each(lambda f: f.spacing),
            area=each(lambda f: f.area),
            weights=tuple(
                tuple(stack([f.weights[a][k] for f in flats]) for k in range(2))
                for a in range(3)
            ),
            volume=stack([f.volume for f in flats]),
        )
        # what the staggered metrics are built from, per block: the grid's
        # own arrays, held until first use
        self._sources = [{name: getattr(g, name) for name in _SOURCES} for g in grids]
        self._metrics: dict = {}
        self._scratch: dict[int, FlatScratch] = {}
        #: (the group whose scratch row this one's is, the row), or None
        self._row_of = row_of

    @classmethod
    def of(cls, grids: Sequence["LocalGrid"]) -> "GridGroup":
        """The group of ``grids``' blocks, in order: the one grid's own group
        of one, or a stacked group. Each grid of a stacked group gets a new
        group of one, a row of it, in place of the cached one (and of any
        scratch that held), so a grid's own calls use the stacked scratch
        whatever ran on the grid before."""
        if len(grids) == 1:
            return grids[0].group
        group = cls(grids)
        for row, grid in enumerate(grids):
            vars(grid)["group"] = cls([grid], (group, row))  # the cached_property's slot
        return group

    @property
    def group(self) -> "GridGroup":
        """Itself: an operator takes a :class:`LocalGrid` or a group, and
        reads ``.group`` of either."""
        return self

    def members(self, f: np.ndarray) -> np.ndarray:
        """``f`` viewed ``(G, B, ...)``: a rank's ``([B,] ...)`` array on a
        group of one, or a group's ``(G, [B,] ...)`` block (``B`` is 1
        without a member axis). Only unit axes are inserted, so it is always
        a view."""
        return f.reshape((self.size, -1) + f.shape[-3:])

    def _lazy(self, key, build):
        if key not in self._metrics:
            self._metrics[key] = build()
        return self._metrics[key]

    def _stack(self, per_block) -> np.ndarray:
        """``per_block(sources)`` of every block, stacked ``(G, 1, ...)``."""
        return stack_rows([per_block(src)[np.newaxis] for src in self._sources])

    def column(self, name: str) -> np.ndarray:
        """A 1-D coordinate metric of every block, ``(G, 1, ...)`` along its
        own spatial axis: ``rc``, ``re`` and ``d_rc`` (``np.diff`` of ``rc``)
        on r, ``sin_tc``, ``sin_te`` and ``d_tc`` on theta, ``d_pc`` on phi.
        On a group of one ``rc`` and ``re`` are views of the grid's."""
        axis, build = _COLUMNS[name]
        return self._lazy(name, lambda: self._stack(lambda c: _on_axis(build(c), axis)))

    @property
    def edge_lengths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per axis, every block's edge lengths (:func:`edge_length`)."""
        return self._lazy("edge_lengths", lambda: tuple(
            self._stack(lambda c: edge_length(a, c["re"], c["te"], c["pe"])) for a in range(3)
        ))

    @property
    def face_areas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per axis, every block's face areas (views on a group of one)."""
        return self._lazy("face_areas", lambda: tuple(
            self._stack(lambda c: c[name]) for name in ("area_r", "area_t", "area_p")
        ))

    @property
    def zero_area(self) -> tuple[np.ndarray | None, ...]:
        """Per axis, a mask of the faces of zero area, or None when every
        face of every block has area (polar-cutout grids)."""
        return self._lazy("zero_area", lambda: tuple(
            None if a.all() else a == 0 for a in self.face_areas
        ))

    def gradient(self, axis: int) -> tuple[tuple[slice, tuple[np.ndarray, ...]], ...]:
        """``np.gradient``'s interior coefficients along spatial ``axis``
        (:func:`gradient_coefficients`) for runs of consecutive blocks that
        take the same branch: ``(rows, coefficients)`` per run, each
        coefficient ``(len(rows), 1, ...)`` on ``axis``. A group whose
        blocks all take one branch is one run."""
        def build():
            per_block = [gradient_coefficients(c[("rc", "tc", "pc")[axis]])
                         for c in self._sources]
            runs, start = [], 0
            for i in range(1, self.size + 1):
                if i == self.size or len(per_block[i]) != len(per_block[start]):
                    coeffs = tuple(
                        stack_rows([_on_axis(p[k], axis)[np.newaxis] for p in per_block[start:i]])
                        for k in range(len(per_block[start]))
                    )
                    runs.append((slice(start, i), coeffs))
                    start = i
            return tuple(runs)

        return self._lazy(("gradient", axis), build)

    def scratch(self, rows: int) -> FlatScratch:
        """Work arrays of the centred stencils for ``rows`` batched members.

        They belong to this group (or to the group this one is a row of),
        are freed with it and hold garbage between calls: a caller fills
        them, consumes them and returns nothing that aliases them but
        ``harmonic_face_coeff``'s ``coeff`` (docs/PHYSICS.md, workspace
        rule).
        """
        if rows not in self._scratch:
            if self._row_of is not None:
                whole, row = self._row_of[0].scratch(rows), self._row_of[1]
                cut = slice(row, row + 1)
                self._scratch[rows] = FlatScratch(
                    whole.coeff[:, cut], whole.flux[cut], whole.cells[cut], whole.acc[cut]
                )
            else:
                g, st = self.size, self.flat
                n = st.spacing[0].shape[-1]
                self._scratch[rows] = FlatScratch(
                    np.empty((3, g, rows, n)), np.empty((g, rows, n)), np.empty((g, rows, n)),
                    np.empty((g, rows, st.hi - st.lo)),
                )
        return self._scratch[rows]


@dataclass(frozen=True)
class LocalGrid:
    """One rank's block with ghost-extended coordinates and metrics.

    All metric arrays cover the ghosted extent so stencils can be applied
    up to (but not into) the outermost ghost layer without special cases.
    """

    re: np.ndarray  # ghosted r edges, length nrg + 1
    te: np.ndarray  # ghosted theta edges, length ntg + 1
    pe: np.ndarray  # ghosted phi edges, length npg + 1
    ghost: int
    interior_shape: tuple[int, int, int]

    @classmethod
    def from_global(
        cls, grid: SphericalGrid, decomp: Decomposition3D, rank: int, *, ghost: int = 1
    ) -> "LocalGrid":
        """Carve a rank's block out of the global grid, ghost-extended."""
        if decomp.global_shape != grid.shape:
            raise ValueError(
                f"decomposition shape {decomp.global_shape} != grid shape {grid.shape}"
            )
        b = decomp.bounds(rank)
        g = ghost

        def cut(edges: np.ndarray, lo: int, hi: int, periodic: bool, span: float) -> np.ndarray:
            n = edges.size - 1
            if g == 0:
                return edges[lo : hi + 1].copy()
            ext = _extend_edges(edges, g, periodic=periodic, span=span)
            # ext index of global edge m is m + g
            return ext[lo : hi + 2 * g + 1].copy()

        re = cut(grid.r_edges, b[0][0], b[0][1], False, 0.0)
        te = cut(grid.t_edges, b[1][0], b[1][1], False, 0.0)
        pe = cut(grid.p_edges, b[2][0], b[2][1], True, 2 * np.pi)
        return cls(
            re=re,
            te=te,
            pe=pe,
            ghost=g,
            interior_shape=decomp.local_shape(rank),
        )

    # -- shapes -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """Ghosted cell counts (nrg, ntg, npg)."""
        return (self.re.size - 1, self.te.size - 1, self.pe.size - 1)

    def centered_shape(self) -> tuple[int, int, int]:
        """Shape of a ghosted cell-centered array."""
        return self.shape

    def face_shape(self, axis: int) -> tuple[int, int, int]:
        """Shape of a ghosted face array staggered along ``axis``."""
        s = list(self.shape)
        s[axis] += 1
        return tuple(s)  # type: ignore[return-value]

    def interior(self) -> tuple:
        """Index selecting the interior of a ghosted centered array.

        The tuple is ``(Ellipsis, slice_r, slice_t, slice_p)``: the
        leading Ellipsis makes the same index work on scalar 3-D arrays
        and member-batched 4-D arrays (the spatial axes are always the
        trailing three). The spatial slices sit at positions -3..-1.
        """
        g = self.ghost
        return (Ellipsis, *(slice(g, n + g) for n in self.interior_shape))

    def face_interior(self, axis: int) -> tuple:
        """Index selecting interior faces of a face array (incl. both
        boundary faces along the staggered axis); Ellipsis-prefixed like
        :meth:`interior` so it applies to batched arrays too."""
        g = self.ghost
        out = []
        for a, n in enumerate(self.interior_shape):
            out.append(slice(g, n + g + (1 if a == axis else 0)))
        return (Ellipsis, *out)

    # -- 1-D coordinates ------------------------------------------------------

    @cached_property
    def rc(self) -> np.ndarray:
        """Ghosted r cell centers."""
        return 0.5 * (self.re[:-1] + self.re[1:])

    @cached_property
    def tc(self) -> np.ndarray:
        """Ghosted theta cell centers."""
        return 0.5 * (self.te[:-1] + self.te[1:])

    @cached_property
    def pc(self) -> np.ndarray:
        """Ghosted phi cell centers."""
        return 0.5 * (self.pe[:-1] + self.pe[1:])

    @cached_property
    def dr(self) -> np.ndarray:
        """Radial cell widths."""
        return np.diff(self.re)

    @cached_property
    def dt(self) -> np.ndarray:
        """Theta cell widths."""
        return np.diff(self.te)

    @cached_property
    def dp(self) -> np.ndarray:
        """Phi cell widths."""
        return np.diff(self.pe)

    # -- metric arrays ----------------------------------------------------------

    @cached_property
    def _dcos(self) -> np.ndarray:
        return np.cos(self.te[:-1]) - np.cos(self.te[1:])

    @cached_property
    def _r2h(self) -> np.ndarray:
        """(r_{i+1}^2 - r_i^2)/2 per cell."""
        return 0.5 * (self.re[1:] ** 2 - self.re[:-1] ** 2)

    @cached_property
    def _r3t(self) -> np.ndarray:
        """(r_{i+1}^3 - r_i^3)/3 per cell."""
        return (self.re[1:] ** 3 - self.re[:-1] ** 3) / 3.0

    @cached_property
    def volume(self) -> np.ndarray:
        """Cell volumes, ghosted shape."""
        return (
            self._r3t[:, None, None]
            * self._dcos[None, :, None]
            * self.dp[None, None, :]
        )

    @cached_property
    def area_r(self) -> np.ndarray:
        """r-face areas, shape (nrg+1, ntg, npg)."""
        return (
            (self.re**2)[:, None, None]
            * self._dcos[None, :, None]
            * self.dp[None, None, :]
        )

    @cached_property
    def area_t(self) -> np.ndarray:
        """theta-face areas, shape (nrg, ntg+1, npg)."""
        return (
            self._r2h[:, None, None]
            * np.sin(self.te)[None, :, None]
            * self.dp[None, None, :]
        )

    @cached_property
    def area_p(self) -> np.ndarray:
        """phi-face areas, shape (nrg, ntg, npg+1)."""
        return (
            self._r2h[:, None, None]
            * self.dt[None, :, None]
            * np.ones_like(self.pe)[None, None, :]
        )

    @cached_property
    def flat(self) -> FlatStencil:
        """Spacings, areas, weights and volumes of the centred stencils."""
        nr, nt, np_ = self.shape
        step = (nt * np_, np_, 1)
        lo = sum(step)
        hi = max(nr * nt * np_ - lo, lo)

        def on_faces(axis: int, value: np.ndarray, neutral: float) -> np.ndarray:
            # ``value`` broadcasts to the faces between consecutive cells along
            # ``axis``; kept where both transverse indices are interior
            faces = tuple(n - (a == axis) for a, n in enumerate(self.shape))
            across = tuple(slice(None) if a == axis else slice(1, -1) for a in range(3))
            full = np.full(self.shape, neutral)
            full[tuple(map(slice, faces))][across] = np.broadcast_to(value, faces)[across]
            return full.ravel()

        def weights(axis: int) -> tuple[np.ndarray, np.ndarray]:
            c, e = (self.rc, self.tc, self.pc)[axis], (self.re, self.te, self.pe)[axis]
            w = (e[1:-1] - c[:-1]) / (c[1:] - c[:-1])
            if axis == 0:
                return (1.0 - w)[:, None], w[:, None]
            plane = (lambda x: np.repeat(x, np_)) if axis == 1 else (lambda x: np.tile(x, nt))
            return plane(np.append(1.0 - w, 0.0))[None], plane(np.append(w, 0.0))[None]

        spacing = (
            np.diff(self.rc)[:, None, None],
            (self.rc[:, None] * np.diff(self.tc)[None, :])[:, :, None],
            self.rc[:, None, None]
            * np.sin(self.tc)[None, :, None]
            * np.diff(self.pc)[None, None, :],
        )
        area = (self.area_r[1:-1], self.area_t[:, 1:-1], self.area_p[:, :, 1:-1])
        empty = slice(0, 0)
        return FlatStencil(
            step=step,
            lo=lo,
            hi=hi,
            faces=tuple(
                (slice(lo - s, hi), slice(lo, hi + s)) if hi > lo else (empty, empty)
                for s in step
            ),
            spacing=tuple(on_faces(a, spacing[a], 1.0) for a in range(3)),  # type: ignore[arg-type]
            area=tuple(on_faces(a, area[a], 0.0) for a in range(3)),  # type: ignore[arg-type]
            weights=tuple(weights(a) for a in range(3)),
            volume=self.volume.ravel()[lo:hi],
        )

    @cached_property
    def group(self) -> "GridGroup":
        """This block as a group of one: views of :attr:`flat`, and the
        scratch of every centred stencil called on this grid. In
        ``__dict__``, so it dies with the grid."""
        return GridGroup([self])

    @cached_property
    def min_cell_extent(self) -> float:
        """Smallest physical cell extent (interior), for CFL."""
        g = self.ghost
        sl = slice(g, -g) if g else slice(None)
        dr = self.dr[sl].min()
        rdt = (self.rc[:, None] * self.dt[None, :])[sl, sl].min()
        rsdp = (
            self.rc[:, None, None]
            * np.sin(self.tc)[None, :, None]
            * self.dp[None, None, :]
        )[sl, sl, sl].min()
        return float(min(dr, rdt, rsdp))
