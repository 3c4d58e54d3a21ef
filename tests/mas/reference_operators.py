"""The step's operators as they stood before the workspace rewrites.

Oracle for ``test_operator_workspace.py``: the bodies below are verbatim
copies of earlier commits' operators, one full-size temporary per
expression node on the ghosted 3-D arrays. The diffusion family
(``diffuse_flux_div``, ``harmonic_face_coeff``, ``viscous_rhs``,
``implicit_matvec``, ``jacobi_diagonal``, ``kappa_centered``,
``conduction_rhs``) is from before the grid's scratch existed, spacings
rebuilt per call; the rest of the step (``div_center``, ``advect_upwind``,
``emf_edges``, ``current_edges``, ``ct_face_update``, ``lorentz_force`` and
their helpers) from before the flat layout, derived fields recomputed by
every call. They define the bits the operators in ``repro.mas`` must
reproduce: every state digest in ``tests/fixtures/pricing_golden.json`` was
recorded with this order of operations. Do not "tidy" them.
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


# -- the rest of the step: advection, divergence, constrained transport -------


def _avg(f: np.ndarray, axis: int) -> np.ndarray:
    """Midpoint average between consecutive entries along spatial ``axis``."""
    a = _ax(f, axis)
    lo = [slice(None)] * f.ndim
    hi = [slice(None)] * f.ndim
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    return 0.5 * (f[tuple(lo)] + f[tuple(hi)])


def _face_interp(f: np.ndarray, centers: np.ndarray, faces: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of centered values to internal face positions.

    Second-order on non-uniform grids, unlike the midpoint average (which
    carries an O(stretch-ratio) error that never converges under
    refinement at fixed ratio).
    """
    w = (faces[1:-1] - centers[:-1]) / (centers[1:] - centers[:-1])
    shape = [1, 1, 1]
    shape[axis] = w.size
    w = w.reshape(shape)
    a = _ax(f, axis)
    lo = [slice(None)] * f.ndim
    hi = [slice(None)] * f.ndim
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    return (1.0 - w) * f[tuple(lo)] + w * f[tuple(hi)]


def div_center(
    vr: np.ndarray, vt: np.ndarray, vp: np.ndarray, grid: LocalGrid
) -> np.ndarray:
    """FV divergence of a cell-centered vector; valid away from the rim."""
    out = np.zeros_like(vr)
    fr = _face_interp(vr, grid.rc, grid.re, 0) * grid.area_r[1:-1]
    ft = _face_interp(vt, grid.tc, grid.te, 1) * grid.area_t[:, 1:-1]
    fp = _face_interp(vp, grid.pc, grid.pe, 2) * grid.area_p[:, :, 1:-1]
    out[_INNER] = (
        _diff(fr, 0)[..., :, 1:-1, 1:-1]
        + _diff(ft, 1)[..., 1:-1, :, 1:-1]
        + _diff(fp, 2)[..., 1:-1, 1:-1, :]
    ) / grid.volume[1:-1, 1:-1, 1:-1]
    return out


def advect_upwind(
    f: np.ndarray,
    vr: np.ndarray,
    vt: np.ndarray,
    vp: np.ndarray,
    grid: LocalGrid,
) -> np.ndarray:
    """FV upwind divergence of the flux f*v: returns div(f v) at centers.

    First-order donor-cell, unconditionally TVD -- the robust transport
    choice for a reproduction focused on kernel streams, not shock
    sharpness.
    """
    out = np.zeros_like(f)

    def face_flux(v: np.ndarray, axis: int, area: np.ndarray) -> np.ndarray:
        vbar = _avg(v, axis)
        a = _ax(f, axis)
        lo = [slice(None)] * f.ndim
        hi = [slice(None)] * f.ndim
        lo[a] = slice(None, -1)
        hi[a] = slice(1, None)
        fup = np.where(vbar > 0.0, f[tuple(lo)], f[tuple(hi)])
        return vbar * fup * area

    fr = face_flux(vr, 0, grid.area_r[1:-1])
    ft = face_flux(vt, 1, grid.area_t[:, 1:-1])
    fp = face_flux(vp, 2, grid.area_p[:, :, 1:-1])
    out[_INNER] = (
        _diff(fr, 0)[..., :, 1:-1, 1:-1]
        + _diff(ft, 1)[..., 1:-1, :, 1:-1]
        + _diff(fp, 2)[..., 1:-1, 1:-1, :]
    ) / grid.volume[1:-1, 1:-1, 1:-1]
    return out


def face_to_center(
    br: np.ndarray, bt: np.ndarray, bp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average face fields to cell centers (simple two-point mean)."""
    return _avg(br, 0), _avg(bt, 1), _avg(bp, 2)


def emf_edges(
    vr: np.ndarray,
    vt: np.ndarray,
    vp: np.ndarray,
    br: np.ndarray,
    bt: np.ndarray,
    bp: np.ndarray,
    grid: LocalGrid,
    *,
    resistivity: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Electric field E = -v x B + eta J on cell edges.

    Returns (Er, Et, Ep) with spatial shapes (nc, ne, ne), (ne, nc, ne),
    (ne, ne, nc) per axis (ne = nc + 1 edges). Rim entries (where the
    averaging stencil leaves the ghosted block) are zero; interior face
    updates never read them. ``resistivity`` may be a per-member array
    broadcastable against the edge arrays (e.g. shape ``(B, 1, 1, 1)``).
    """
    lead = vr.shape[:-3]
    nrg, ntg, npg = vr.shape[-3:]
    er = np.zeros(lead + (nrg, ntg + 1, npg + 1))
    et = np.zeros(lead + (nrg + 1, ntg, npg + 1))
    ep = np.zeros(lead + (nrg + 1, ntg + 1, npg))

    # -- Ep at (r-edge, theta-edge, phi-center): -(vr*Bt - vt*Br)
    vr_e = _avg(_avg(vr, 0), 1)                  # (nrg-1, ntg-1, npg)
    vt_e = _avg(_avg(vt, 0), 1)
    bt_e = _avg(bt, 0)[..., :, 1:-1, :]          # faces avg along r, theta-edges 1..ntg-1
    br_e = _avg(br, 1)[..., 1:-1, :, :]          # faces avg along theta, r-edges 1..nrg-1
    ep[..., 1:-1, 1:-1, :] = -(vr_e * bt_e - vt_e * br_e)

    # -- Er at (r-center, theta-edge, phi-edge): -(vt*Bp - vp*Bt) + eta*Jr
    vt_e = _avg(_avg(vt, 1), 2)
    vp_e = _avg(_avg(vp, 1), 2)
    bp_e = _avg(bp, 1)[..., :, :, 1:-1]
    bt_e = _avg(bt, 2)[..., :, 1:-1, :]
    er_core = -(vt_e * bp_e - vp_e * bt_e)
    er[..., :, 1:-1, 1:-1] = er_core

    # -- Et at (r-edge, theta-center, phi-edge): -(vp*Br - vr*Bp) + eta*Jt
    vp_e = _avg(_avg(vp, 0), 2)
    vr_e = _avg(_avg(vr, 0), 2)
    br_e = _avg(br, 2)[..., 1:-1, :, :]
    bp_e = _avg(bp, 0)[..., :, :, 1:-1]
    et_core = -(vp_e * br_e - vr_e * bp_e)
    et[..., 1:-1, :, 1:-1] = et_core

    if np.any(np.asarray(resistivity) > 0.0):
        jr, jt, jp = current_edges(br, bt, bp, grid)
        er += resistivity * jr
        et += resistivity * jt
        ep += resistivity * jp
    return er, et, ep


def current_edges(
    br: np.ndarray, bt: np.ndarray, bp: np.ndarray, grid: LocalGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete J = curl(B) on edges (first order, rim zeroed)."""
    lead = br.shape[:-3]
    nrg, ntg, npg = br.shape[-3] - 1, bt.shape[-2] - 1, bp.shape[-1] - 1
    jr = np.zeros(lead + (nrg, ntg + 1, npg + 1))
    jt = np.zeros(lead + (nrg + 1, ntg, npg + 1))
    jp = np.zeros(lead + (nrg + 1, ntg + 1, npg))

    sin_tc = np.sin(grid.tc)
    sin_te = np.sin(grid.te)

    # Jr = 1/(r sin t) [ d(sin t Bp)/dt - dBt/dp ] at (rc, te, pe)
    d_sbp = _diff(sin_tc[None, :, None] * bp, 1)[..., :, :, 1:-1] / np.diff(grid.tc)[None, :, None]
    d_bt = _diff(bt, 2)[..., :, 1:-1, :] / np.diff(grid.pc)[None, None, :]
    jr[..., :, 1:-1, 1:-1] = (d_sbp - d_bt) / (
        grid.rc[:, None, None] * sin_te[None, 1:-1, None]
    )

    # Jt = 1/(r sin t) dBr/dp - 1/r d(r Bp)/dr at (re, tc, pe)
    d_br = _diff(br, 2)[..., 1:-1, :, :] / np.diff(grid.pc)[None, None, :]
    d_rbp = _diff(grid.rc[:, None, None] * bp, 0)[..., :, :, 1:-1] / np.diff(grid.rc)[:, None, None]
    jt[..., 1:-1, :, 1:-1] = d_br / (
        grid.re[1:-1, None, None] * sin_tc[None, :, None]
    ) - d_rbp / grid.re[1:-1, None, None]

    # Jp = 1/r [ d(r Bt)/dr - dBr/dt ] at (re, te, pc)
    d_rbt = _diff(grid.rc[:, None, None] * bt, 0)[..., :, 1:-1, :] / np.diff(grid.rc)[:, None, None]
    d_br2 = _diff(br, 1)[..., 1:-1, :, :] / np.diff(grid.tc)[None, :, None]
    jp[..., 1:-1, 1:-1, :] = (d_rbt - d_br2) / grid.re[1:-1, None, None]
    return jr, jt, jp


def _edge_lengths(grid: LocalGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``LocalGrid.len_r``, ``len_t`` and ``len_p`` as they stood before the
    edge lengths moved to ``GridGroup.edge_lengths``."""
    len_r = np.broadcast_to(
        grid.dr[:, None, None],
        (grid.dr.size, grid.te.size, grid.pe.size),
    ).copy()
    len_t = grid.re[:, None, None] * grid.dt[None, :, None] * np.ones_like(grid.pe)[None, None, :]
    len_p = (
        grid.re[:, None, None]
        * np.sin(grid.te)[None, :, None]
        * grid.dp[None, None, :]
    )
    return len_r, len_t, len_p


def ct_face_update(
    er: np.ndarray,
    et: np.ndarray,
    ep: np.ndarray,
    grid: LocalGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dB/dt on faces from edge EMF circulation (exactly divergence-free).

    Faraday's law in integral form: dB_a * A_a = -circulation of E around
    the face, with the cyclic orientation (r, theta, phi).
    """
    lr, lt, lp = _edge_lengths(grid)

    circ_r = _diff(ep * lp, 1) - _diff(et * lt, 2)   # (nrg+1, ntg, npg)
    circ_t = _diff(er * lr, 2) - _diff(ep * lp, 0)   # (nrg, ntg+1, npg)
    circ_p = _diff(et * lt, 0) - _diff(er * lr, 1)   # (nrg, ntg, npg+1)

    with np.errstate(divide="ignore", invalid="ignore"):
        dbr = -circ_r / grid.area_r
        dbt = -circ_t / grid.area_t
        dbp = -circ_p / grid.area_p
    # polar-cutout faces have finite area here (cutout excludes sin=0), but
    # guard anyway for degenerate test grids
    for a in (dbr, dbt, dbp):
        np.nan_to_num(a, copy=False, posinf=0.0, neginf=0.0)
    return dbr, dbt, dbp


def lorentz_force(
    br: np.ndarray, bt: np.ndarray, bp: np.ndarray, grid: LocalGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J x B at cell centers (first order).

    J is the edge current averaged to centers; B is the face field averaged
    to centers.
    """
    jr_e, jt_e, jp_e = current_edges(br, bt, bp, grid)
    # average edge currents to centers: two transverse averages each
    jr = _avg(_avg(jr_e, 1), 2)
    jt = _avg(_avg(jt_e, 0), 2)
    jp = _avg(_avg(jp_e, 0), 1)
    bcr, bct, bcp = face_to_center(br, bt, bp)
    fr = jt * bcp - jp * bct
    ft = jp * bcr - jr * bcp
    fp = jr * bct - jt * bcr
    return fr, ft, fp
