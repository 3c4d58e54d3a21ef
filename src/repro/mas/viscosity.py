"""Viscous operator and its implicit-solve pieces.

MAS treats viscosity implicitly; the resulting SPD system is solved by PCG
with a point-Jacobi preconditioner (paper refs [22], [25]). This module
supplies the operator application and the diagonal estimate;
`repro.mas.implicit_solve` wires them into `repro.mas.pcg` as
kernel-charged callbacks (one halo exchange per operator application --
the pattern Fig. 4 profiles).
"""

from __future__ import annotations

import numpy as np

from repro.mas.grid import GridGroup, LocalGrid
from repro.mas.operators import diffuse_flux_div


def viscous_rhs(
    v: np.ndarray, grid: LocalGrid | GridGroup, nu: float | np.ndarray
) -> np.ndarray:
    """Explicit viscous acceleration nu * div(grad v) (componentwise), on
    one rank's block or on a group's stacks (as in ``diffuse_flux_div``).

    ``nu`` may be a per-member array broadcastable against ``v`` (shape
    ``(B, 1, 1, 1)`` for a batched state).
    """
    if np.any(np.asarray(nu) < 0):
        raise ValueError("viscosity cannot be negative")
    out = diffuse_flux_div(v, grid)
    out *= nu
    return out


def implicit_matvec(
    v: np.ndarray,
    grid: LocalGrid | GridGroup,
    nu: float | np.ndarray,
    dt: float | np.ndarray,
) -> np.ndarray:
    """Backward-Euler operator A v = v - dt * (nu * Lap(v)).

    Valid on interior cells; the rim is passed through unchanged (identity)
    so the operator stays SPD on the solved subspace: `diffuse_flux_div`
    leaves the rim zero, so the result equals ``v`` there. The scalings and
    the subtraction run in place on that one fresh array.
    """
    if np.any(np.asarray(dt) < 0):
        raise ValueError("dt cannot be negative")
    out = viscous_rhs(v, grid, nu)
    out *= dt
    np.subtract(v, out, out=out)
    return out


def jacobi_diagonal(
    grid: LocalGrid, nu: float | np.ndarray, dt: float | np.ndarray
) -> np.ndarray:
    """Diagonal of the backward-Euler viscous operator, for Jacobi PCG.

    diag(A) = 1 + dt*nu/V * sum_faces(A_face / d_centerline). Rim cells get
    1 (identity rows). Array-valued ``nu``/``dt`` (per ensemble member,
    spatial dims of size one) yield a member-batched diagonal.
    """
    scale = np.asarray(dt * nu)
    diag = np.ones(np.broadcast_shapes(scale.shape, grid.shape))
    inner = (slice(1, -1),) * 3
    # per axis, A/d of the face below plus the face above each interior cell
    # (the flat face arrays, viewed as lower-cell-indexed 3-D arrays)
    pairs = []
    for axis, (area, spacing) in enumerate(zip(grid.flat.area, grid.flat.spacing)):
        g = (area / spacing).reshape(grid.shape)
        below = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(3))
        pairs.append(g[below] + g[inner])
    total = (pairs[0] + pairs[1]) + pairs[2]
    diag[(Ellipsis, *inner)] += dt * nu * total / grid.volume[inner]
    return diag

