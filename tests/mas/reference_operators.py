"""The diffusion operators as they stood before the workspace rewrite.

Oracle for ``test_operator_workspace.py``: the bodies below are the parent
commit's ``diffuse_flux_div``, ``harmonic_face_coeff``, ``viscous_rhs``,
``implicit_matvec``, ``jacobi_diagonal``, ``kappa_centered`` and
``conduction_rhs``, moved here verbatim (one full-size temporary per
expression node, spacings rebuilt per call). They define the bits the
allocation-free operators in ``repro.mas`` must reproduce: every state
digest in ``tests/fixtures/pricing_golden.json`` was recorded with this
order of operations. Do not "tidy" them.
"""

from __future__ import annotations

import numpy as np

from repro.mas.constants import PhysicsParams
from repro.mas.grid import LocalGrid


def _ax(f: np.ndarray, axis: int) -> int:
    """Absolute axis of spatial axis ``axis`` (0=r, 1=theta, 2=phi)."""
    return f.ndim - 3 + axis


def _diff(f: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference along spatial ``axis`` (length shrinks by one)."""
    return np.diff(f, axis=_ax(f, axis))


#: Interior index of the trailing three (spatial) axes.
_INNER = (Ellipsis, slice(1, -1), slice(1, -1), slice(1, -1))


def diffuse_flux_div(
    f: np.ndarray, grid: LocalGrid, coeff_face: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """FV div(c grad f) at centers with face coefficients.

    ``coeff_face`` holds coefficients on internal faces per axis (shapes of
    ``_avg(f, axis)``); ``None`` means unit coefficient.
    """
    out = np.zeros_like(f)

    # physical distances between adjacent cell centers
    d_r = np.diff(grid.rc)[:, None, None]
    d_t = (grid.rc[:, None] * np.diff(grid.tc)[None, :])[:, :, None]
    d_p = (
        grid.rc[:, None, None]
        * np.sin(grid.tc)[None, :, None]
        * np.diff(grid.pc)[None, None, :]
    )

    gr = _diff(f, 0) / d_r
    gt = _diff(f, 1) / d_t
    gp = _diff(f, 2) / d_p
    if coeff_face is not None:
        cr, ct, cp = coeff_face
        gr = gr * cr
        gt = gt * ct
        gp = gp * cp
    fr = gr * grid.area_r[1:-1]
    ft = gt * grid.area_t[:, 1:-1]
    fp = gp * grid.area_p[:, :, 1:-1]
    out[_INNER] = (
        _diff(fr, 0)[..., :, 1:-1, 1:-1]
        + _diff(ft, 1)[..., 1:-1, :, 1:-1]
        + _diff(fp, 2)[..., 1:-1, 1:-1, :]
    ) / grid.volume[1:-1, 1:-1, 1:-1]
    return out


def harmonic_face_coeff(
    c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Harmonic mean of a positive centered coefficient onto internal faces."""
    if np.any(c <= 0):
        raise ValueError("harmonic mean requires positive coefficients")

    def h(axis: int) -> np.ndarray:
        a = _ax(c, axis)
        lo = [slice(None)] * c.ndim
        hi = [slice(None)] * c.ndim
        lo[a] = slice(None, -1)
        hi[a] = slice(1, None)
        x, y = c[tuple(lo)], c[tuple(hi)]
        return 2.0 * x * y / (x + y)

    return h(0), h(1), h(2)


def viscous_rhs(
    v: np.ndarray, grid: LocalGrid, nu: float | np.ndarray
) -> np.ndarray:
    """Explicit viscous acceleration nu * div(grad v) (componentwise).

    ``nu`` may be a per-member array broadcastable against ``v`` (shape
    ``(B, 1, 1, 1)`` for a batched state).
    """
    if np.any(np.asarray(nu) < 0):
        raise ValueError("viscosity cannot be negative")
    return nu * diffuse_flux_div(v, grid)


def implicit_matvec(
    v: np.ndarray,
    grid: LocalGrid,
    nu: float | np.ndarray,
    dt: float | np.ndarray,
) -> np.ndarray:
    """Backward-Euler operator A v = v - dt * nu * Lap(v).

    Valid on interior cells; the rim is passed through unchanged (identity)
    so the operator stays SPD on the solved subspace.
    """
    if np.any(np.asarray(dt) < 0):
        raise ValueError("dt cannot be negative")
    out = v - dt * viscous_rhs(v, grid, nu)
    # rim: diffuse_flux_div already leaves the rim zero, so out = v there.
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
    d_r = np.diff(grid.rc)[:, None, None]
    d_t = (grid.rc[:, None] * np.diff(grid.tc)[None, :])[:, :, None]
    d_p = (
        grid.rc[:, None, None]
        * np.sin(grid.tc)[None, :, None]
        * np.diff(grid.pc)[None, None, :]
    )
    ar = grid.area_r[1:-1] / d_r
    at = grid.area_t[:, 1:-1] / d_t
    ap = grid.area_p[:, :, 1:-1] / d_p
    inner = (slice(1, -1), slice(1, -1), slice(1, -1))
    total = (
        (ar[:-1] + ar[1:])[:, 1:-1, 1:-1]
        + (at[:, :-1] + at[:, 1:])[1:-1, :, 1:-1]
        + (ap[:, :, :-1] + ap[:, :, 1:])[1:-1, 1:-1, :]
    )
    diag[(Ellipsis, *inner)] += dt * nu * total / grid.volume[inner]
    return diag


def kappa_centered(temp: np.ndarray, params: PhysicsParams) -> np.ndarray:
    """kappa(T) = kappa0 * T^{5/2} at cell centers, floored for safety."""
    t = np.maximum(temp, params.temp_floor)
    return params.kappa0 * t**2.5


def conduction_rhs(
    temp: np.ndarray, rho: np.ndarray, grid: LocalGrid, params: PhysicsParams
) -> np.ndarray:
    """dT/dt = (gamma-1)/rho * div(kappa(T) grad T)."""
    kap = kappa_centered(temp, params)
    flux_div = diffuse_flux_div(temp, grid, harmonic_face_coeff(kap))
    out = np.zeros_like(temp)
    inner = (Ellipsis, slice(1, -1), slice(1, -1), slice(1, -1))
    out[inner] = (
        (params.gamma - 1.0)
        * flux_div[inner]
        / np.maximum(rho[inner], params.rho_floor)
    )
    return out
