"""Physical boundary conditions (ghost filling).

Applied after halo exchange: ranks owning a global domain boundary fill
the ghost layers the exchange left untouched. phi is periodic and fully
handled by the exchanger.

* inner r (solar surface): line-tied -- fixed (rho, T) from the boundary
  profile, velocity reflected to zero at the surface.
* outer r: zero-gradient open boundary.
* theta cutouts: reflective (v_theta antisymmetric, everything else
  symmetric).

Face fields only ever have *ghost* faces filled here (zero-gradient);
interior faces -- including the boundary faces themselves -- are evolved
exclusively by the CT update so the divergence-free invariant survives.

A rank group fills each face once, over the rows that own it
(:class:`BoundaryClasses`), each row in one rank's order of faces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.mas.state import ALL_FIELDS, MhdState
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import row_index


#: Per face of :class:`BoundaryClasses`, in fill order: the index of its
#: ghost layer and of the interior layer it mirrors, in the trailing axes.
_FACES = tuple(
    tuple((Ellipsis, *(i if a == axis else slice(None) for a in range(3))) for i in layers)
    for axis in (0, 1) for layers in ((0, 1), (-1, -2))
)


class BoundaryClasses(NamedTuple):
    """The rows of a rank group's blocks that own each global boundary
    face, as an index prefix: ``()`` for every row (so also a group of one,
    or one rank's own arrays), a row slice or index array, or None."""

    r_low: tuple | None
    r_high: tuple | None
    t_low: tuple | None
    t_high: tuple | None

    @classmethod
    def of(cls, decomp: Decomposition3D, ranks: tuple[int, ...], ghost=1) -> BoundaryClasses:
        """The classes of the group whose rows are ``ranks``."""
        if ghost != 1:
            raise ValueError("boundary conditions assume one ghost layer")

        def owners(axis: int, direction: int) -> tuple | None:
            rows = [i for i, r in enumerate(ranks) if decomp.neighbor(r, axis, direction) is None]
            return None if not rows else () if len(rows) == len(ranks) else (row_index(rows),)

        return cls(owners(0, -1), owners(0, 1), owners(1, -1), owners(1, 1))


class BoundaryProfiles(NamedTuple):
    """Frozen inner-boundary (solar surface) values of a group's r-low rows
    (None when no row owns the inner boundary)."""

    rho_inner: np.ndarray | None  # shape (rows, ..., ntg, npg): boundary cell values
    temp_inner: np.ndarray | None

    @classmethod
    def capture(cls, state: MhdState | dict, classes: BoundaryClasses) -> BoundaryProfiles:
        """Freeze the initial first-interior-shell values as the BC."""
        if classes.r_low is None:
            return cls(None, None)
        shell = classes.r_low + _FACES[0][1]
        return cls(state.get("rho")[shell].copy(), state.get("temp")[shell].copy())


def apply_boundaries(state: MhdState | dict, classes: BoundaryClasses,
                     profiles: BoundaryProfiles) -> None:
    """Fill physical-boundary ghosts of all state arrays in place; ``state``
    holds a group's blocks (or one rank's arrays) by field name."""
    for face, (rows, (ghost, mirror)) in enumerate(zip(classes, _FACES)):
        if rows is None:
            continue
        ghost, mirror = rows + ghost, rows + mirror
        if face == 0:  # inner r: fixed (rho, T), reflected velocity
            state.get("rho")[ghost] = profiles.rho_inner
            state.get("temp")[ghost] = profiles.temp_inner
            for name in ("vr", "vt", "vp", "br", "bt", "bp"):
                a = state.get(name)
                a[ghost] = -a[mirror] if name[0] == "v" else a[mirror]
        elif face == 1:  # outer r: zero-gradient
            for name in ALL_FIELDS:
                a = state.get(name)
                a[ghost] = a[mirror]
            # open boundary: forbid inflow through the outer shell
            vr = state.get("vr")
            vr[ghost] = np.maximum(vr[ghost], 0.0)
        else:  # theta cutouts: reflective
            for name in ("rho", "temp", "vr", "vp", "br", "bt", "bp", "vt"):
                a = state.get(name)
                a[ghost] = -a[mirror] if name == "vt" else a[mirror]


def apply_centered_boundary(arr: np.ndarray, classes: BoundaryClasses, *,
                            antisymmetric_theta: bool = False) -> None:
    """Zero-gradient (or theta-reflective) ghost fill for one work array,
    a group's block (or one rank's array).

    Used by solver work vectors (PCG residuals, STS stages) that need valid
    ghosts but have no physical boundary data of their own.
    """
    for face, (rows, (ghost, mirror)) in enumerate(zip(classes, _FACES)):
        if rows is not None:
            shell = arr[rows + mirror]
            arr[rows + ghost] = -shell if antisymmetric_theta and face > 1 else shell
