"""Finite-difference / finite-volume operators on the spherical grid.

All functions are pure numpy on ghosted arrays; the model layer wraps them
in runtime kernels for cost accounting. Stencils are one cell wide, so one
ghost layer suffices. Outputs are full-shape arrays whose one-cell rim is
not meaningful; callers update interior slices only.

Conventions: the trailing three axes of every array are (r, theta, phi);
a leading ensemble-member axis may precede them (see
:mod:`repro.mas.state`), and every operator here is polymorphic over it.
Face arrays are one longer along their stagger axis; edge arrays (EMFs,
currents) are one longer along the two transverse axes. 1-D grid metric
arrays broadcast with trailing-axis alignment (``rc[:, None, None]`` has
shape ``(nr, 1, 1)``), so they apply unchanged to batched arrays.

The centred stencils (`diffuse_flux_div` and its callers in
:mod:`repro.mas.viscosity` and :mod:`repro.mas.conduction`,
`harmonic_face_coeff`, `advect_upwind`, `div_center`), which a step applies
some fifty times, run on the ghosted block's flat index
(:class:`~repro.mas.grid.FlatStencil`), where every pass is one contiguous
operation per member, in scratch owned by the grid; they allocate their
result only. Every operator a step calls also takes a
:class:`~repro.mas.grid.GridGroup`: one pass over the stacked blocks of
the ranks of one ghosted shape, a rank being a group of one.
docs/PHYSICS.md S3a states the rules they follow. The staggered-field
operators allocate one temporary per expression node.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.mas.grid import GridGroup, LocalGrid


_ALL = slice(None)


def _ax(f: np.ndarray, axis: int) -> int:
    """Absolute axis of spatial axis ``axis`` (0=r, 1=theta, 2=phi)."""
    return f.ndim - 3 + axis


def _avg(f: np.ndarray, axis: int) -> np.ndarray:
    """Midpoint average between consecutive entries along spatial ``axis``."""
    a = _ax(f, axis)
    lo = [slice(None)] * f.ndim
    hi = [slice(None)] * f.ndim
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    return 0.5 * (f[tuple(lo)] + f[tuple(hi)])


def _diff(f: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference along spatial ``axis`` (length shrinks by one)."""
    return np.diff(f, axis=_ax(f, axis))


def overlap_split_fractions(
    local_shape: tuple[int, int, int],
    *,
    depth: int = 1,
    axes: tuple[int, ...] = (0, 1, 2),
) -> tuple[float, float]:
    """Work fractions ``(interior, shell)`` of an interior/boundary split.

    A stencil kernel overlapped with a halo exchange runs first on the
    cells at least ``depth`` away from every exchanged face (no ghost
    dependence), then on the remaining boundary shell once the exchange
    finished. Fractions are of the *nominal* (paper-scale) local shape and
    always sum to 1, so the split conserves total kernel traffic exactly.
    Both fractions stay positive: even a degenerate extent keeps one
    interior plane so neither sub-kernel violates ``work_fraction > 0``.
    """
    if depth < 1:
        raise ValueError("split depth must be >= 1")
    fi = 1.0
    for axis, n in enumerate(local_shape):
        if n < 1:
            raise ValueError("local shape extents must be positive")
        if axis in axes:
            fi *= max(n - 2 * depth, 1) / n
    return fi, 1.0 - fi


# -- gradients of centered scalars ---------------------------------------------


def _along(f: np.ndarray, axis: int, cut: slice | int) -> np.ndarray:
    """``f`` cut along spatial ``axis``."""
    index = [_ALL] * 3
    index[axis] = cut
    return f[(Ellipsis, *index)]


def gradient_interior(f: np.ndarray, axis: int, coefficients: tuple) -> np.ndarray:
    """``np.gradient``'s interior of ``f`` along spatial ``axis``, given
    :func:`~repro.mas.grid.gradient_coefficients` shaped to broadcast
    against ``f``: ``(f[2:] - f[:-2]) / (2 dx)`` on uniform spacing, else
    ``a f[:-2] + b f[1:-1] + c f[2:]``, numpy's association either way."""
    lo, mid, hi = (_along(f, axis, cut) for cut in (slice(None, -2), slice(1, -1), slice(2, None)))
    if len(coefficients) == 1:
        return (hi - lo) / coefficients[0]
    a, b, c = coefficients
    return a * lo + b * mid + c * hi


def grad_center(
    f: np.ndarray, grid: LocalGrid | GridGroup
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical gradient (d/dr, 1/r d/dt, 1/(r sin t) d/dp) at centers.

    ``grid`` and ``f`` as in :func:`diffuse_flux_div`. Along each axis the
    interior planes are ``np.gradient``'s with that block's coordinates, to
    the last bit (:meth:`~repro.mas.grid.GridGroup.gradient`), and the two
    end planes, where numpy goes one-sided, are zero: only the interior is
    ever read.
    """
    group = grid.group
    rows = group.members(f)
    out = []
    for axis in range(3):
        d = np.empty(rows.shape)
        _along(d, axis, 0)[...] = 0.0
        _along(d, axis, -1)[...] = 0.0
        inner = _along(d, axis, slice(1, -1))
        for sel, coefficients in group.gradient(axis):
            inner[sel] = gradient_interior(rows[sel], axis, coefficients)
        out.append(d)
    gr, gt, gp = out
    rc = group.column("rc")
    gt /= rc
    gp /= rc * group.column("sin_tc")
    return gr.reshape(f.shape), gt.reshape(f.shape), gp.reshape(f.shape)


# -- the centred stencils, on the flat index --------------------------------------

#: The rim cells in ``FlatStencil``'s range ``[lo, hi)``: the theta and phi
#: ghost lines of the interior r planes.
_RIM = tuple(
    (Ellipsis, slice(1, -1), *cut) for cut in ((0, _ALL), (-1, _ALL), (_ALL, 0), (_ALL, -1))
)


def _rows(f: np.ndarray, group: GridGroup) -> np.ndarray:
    """``f`` as ``(G, B, N)`` rows of its flat index, copied once if it is
    not C-contiguous: a rank's ``([B,] NR, NT, NP)`` array on a group of
    one, or a group's ``(G, [B,] NR, NT, NP)`` stack."""
    n = f.shape[-3] * f.shape[-2] * f.shape[-1]
    return np.ascontiguousarray(f).reshape(group.size, -1, n)


def _planes(a: np.ndarray, start: int, count: int, size: int) -> np.ndarray:
    """``a[..., start : start + count * size]`` viewed as ``(G, B, count, size)``."""
    return a[..., start : start + count * size].reshape(a.shape[:-1] + (count, size))


def _flux_divergence(
    shape: tuple[int, ...],
    group: GridGroup,
    rows: int,
    face_flux: Callable[[int, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """``((dr + dt) + dp) / V`` at the interior cells of a fresh ``shape``
    array, rim zero, where ``face_flux(axis, flux, spare)`` fills the faces
    ``FlatStencil.faces`` names in the ``(G, B, N)`` scratch ``flux``
    (``spare`` is another it may use) and ``d = flux[m] - flux[m - step]``."""
    st = group.flat
    out = np.empty(shape)
    cells = out.reshape(group.size, rows, -1)
    cells[..., : st.lo] = 0.0
    cells[..., st.hi :] = 0.0
    scratch = group.scratch(rows)
    flux, acc, delta = scratch.flux, scratch.acc, scratch.cells[..., : st.hi - st.lo]
    for axis, step in enumerate(st.step):
        face_flux(axis, flux, scratch.cells)
        np.subtract(
            flux[..., st.lo : st.hi], flux[..., st.lo - step : st.hi - step],
            out=delta if axis else acc,
        )
        if axis:
            acc += delta
    np.divide(acc, st.volume, out=cells[..., st.lo : st.hi])
    for rim in _RIM:
        out[rim] = 0.0
    return out


def div_center(
    vr: np.ndarray, vt: np.ndarray, vp: np.ndarray, grid: LocalGrid | GridGroup
) -> np.ndarray:
    """FV divergence of a cell-centered vector; valid away from the rim.

    Face values are the linear interpolation ``(1 - w) f_lo + w f_hi`` to the
    face position: second-order on non-uniform grids, unlike the midpoint
    average (which carries an O(stretch-ratio) error that never converges
    under refinement at fixed ratio).
    """
    group = grid.group
    st = group.flat
    v = [_rows(c, group) for c in (vr, vt, vp)]
    planes = (v[0].shape[-1] // st.step[0] - 1, st.step[0])  # r planes 0 .. NR-2

    def face_flux(axis: int, flux: np.ndarray, spare: np.ndarray) -> None:
        (lower, _), (below, above) = st.faces[axis], st.weights[axis]
        np.multiply(below, _planes(v[axis], 0, *planes), out=_planes(flux, 0, *planes))
        np.multiply(above, _planes(v[axis], st.step[axis], *planes), out=_planes(spare, 0, *planes))
        flux[..., lower] += spare[..., lower]
        flux[..., lower] *= st.area[axis][..., lower]

    return _flux_divergence(vr.shape, group, v[0].shape[1], face_flux)


# -- upwind advection ------------------------------------------------------------


class UpwindFaces(NamedTuple):
    """What every donor-cell advection by one velocity field shares.

    Per axis, on the faces ``FlatStencil.faces`` names: the face velocity
    ``0.5 (v_lo + v_hi)``, and whether it is positive (the lower cell is
    the donor).
    """

    velocity: tuple[np.ndarray, np.ndarray, np.ndarray]
    from_below: tuple[np.ndarray, np.ndarray, np.ndarray]


def upwind_faces(
    vr: np.ndarray, vt: np.ndarray, vp: np.ndarray, grid: LocalGrid | GridGroup
) -> UpwindFaces:
    """Face velocities and donor masks of ``(vr, vt, vp)`` (fresh arrays)."""
    group = grid.group
    velocity = []
    for (lower, upper), v in zip(group.flat.faces, (vr, vt, vp)):
        rows = _rows(v, group)
        velocity.append(np.add(rows[..., lower], rows[..., upper]))
        velocity[-1] *= 0.5
    return UpwindFaces(tuple(velocity), tuple(v > 0.0 for v in velocity))  # type: ignore[arg-type]


def advect_upwind(
    f: np.ndarray, upwind: UpwindFaces, grid: LocalGrid | GridGroup
) -> np.ndarray:
    """FV upwind divergence of the flux f*v: returns div(f v) at centers.

    ``upwind`` is :func:`upwind_faces` of v. First-order donor-cell,
    unconditionally TVD -- the robust transport choice for a reproduction
    focused on kernel streams, not shock sharpness.
    """
    group = grid.group
    st = group.flat
    rows = _rows(f, group)

    def face_flux(axis: int, flux: np.ndarray, spare: np.ndarray) -> None:
        lower, upper = st.faces[axis]
        out = flux[..., lower]
        np.copyto(out, rows[..., upper])
        np.copyto(out, rows[..., lower], where=upwind.from_below[axis])
        out *= upwind.velocity[axis]
        out *= st.area[axis][..., lower]

    return _flux_divergence(f.shape, group, rows.shape[1], face_flux)


# -- diffusion (viscosity / conduction building block) ---------------------------


def diffuse_flux_div(
    f: np.ndarray, grid: LocalGrid | GridGroup, coeff_face: np.ndarray | None = None
) -> np.ndarray:
    """FV div(c grad f) at centers with face coefficients.

    ``grid`` is one rank's block, with ``f`` its ``([B,] NR, NT, NP)``
    array, or a :class:`~repro.mas.grid.GridGroup` of G blocks, with ``f``
    their ``(G, [B,] NR, NT, NP)`` stack: a rank is a group of one, and each
    element goes through the same operations either way. ``coeff_face`` is
    what :func:`harmonic_face_coeff` returns on the same ``grid``; ``None``
    means unit coefficient.

    Allocates the returned array only: face fluxes and the running sum
    live in the group's scratch (`GridGroup.scratch`). The order of
    operations, ``(diff / d) [* c] * area`` per face and
    ``((dr + dt) + dp) / V`` per cell, is frozen: state digests depend on it.
    """
    group = grid.group
    st = group.flat
    rows = _rows(f, group)

    def face_flux(axis: int, flux: np.ndarray, spare: np.ndarray) -> None:
        lower, upper = st.faces[axis]
        out = flux[..., lower]
        np.subtract(rows[..., upper], rows[..., lower], out=out)
        out /= st.spacing[axis][..., lower]
        if coeff_face is not None:
            out *= coeff_face[axis][..., lower]
        out *= st.area[axis][..., lower]

    return _flux_divergence(f.shape, group, rows.shape[1], face_flux)


def harmonic_face_coeff(c: np.ndarray, grid: LocalGrid | GridGroup) -> np.ndarray:
    """Harmonic mean ``((2 x) y) / (x + y)`` of a positive centered
    coefficient onto the flat faces (``grid`` and ``c`` as in
    :func:`diffuse_flux_div`).

    Returns the group's ``(3, G, B, N)`` coefficient scratch: along axis
    ``a`` face ``n`` (between cells ``n`` and ``n + step[a]``) for
    ``n < N - step[a]``, garbage beyond. It is what :func:`diffuse_flux_div`
    takes, and valid until the next call on this group with as many rows.
    """
    if np.any(c <= 0):
        raise ValueError("harmonic mean requires positive coefficients")
    group = grid.group
    rows = _rows(c, group)
    n = rows.shape[-1]
    scratch = group.scratch(rows.shape[1])
    for axis, step in enumerate(group.flat.step):
        x, y = rows[..., : n - step], rows[..., step:]
        out, total = scratch.coeff[axis, ..., : n - step], scratch.flux[..., : n - step]
        np.multiply(2.0, x, out=out)
        out *= y
        np.add(x, y, out=total)
        out /= total
    return scratch.coeff


# -- staggered field machinery (constrained transport) ----------------------------


def face_to_center(
    br: np.ndarray, bt: np.ndarray, bp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average face fields to cell centers (simple two-point mean)."""
    return _avg(br, 0), _avg(bt, 1), _avg(bp, 2)


def div_face(br: np.ndarray, bt: np.ndarray, bp: np.ndarray, grid: LocalGrid) -> np.ndarray:
    """Exact FV divergence of a face field -- the CT invariant.

    Valid on every ghosted cell (face arrays cover all cells).
    """
    return (
        _diff(br * grid.area_r, 0)
        + _diff(bt * grid.area_t, 1)
        + _diff(bp * grid.area_p, 2)
    ) / grid.volume


def _ideal_emf(v1: np.ndarray, b1: np.ndarray, v2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``-(v1 b1 - v2 b2)``: one component of ``-v x B`` from its edge averages."""
    return -(v1 * b1 - v2 * b2)


def emf_edges(
    vr: np.ndarray,
    vt: np.ndarray,
    vp: np.ndarray,
    br: np.ndarray,
    bt: np.ndarray,
    bp: np.ndarray,
    current: tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    resistivity: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Electric field E = -v x B + eta J on cell edges.

    Returns (Er, Et, Ep) with spatial shapes (nc, ne, ne), (ne, nc, ne),
    (ne, ne, nc) per axis (ne = nc + 1 edges). Rim entries (where the
    averaging stencil leaves the ghosted block) are zero; interior face
    updates never read them. ``current`` is :func:`current_edges` of this
    B. ``resistivity`` may be a per-member array broadcastable against the
    edge arrays (e.g. shape ``(B, 1, 1, 1)``).
    """
    lead = vr.shape[:-3]
    nrg, ntg, npg = vr.shape[-3:]
    er = np.zeros(lead + (nrg, ntg + 1, npg + 1))
    et = np.zeros(lead + (nrg + 1, ntg, npg + 1))
    ep = np.zeros(lead + (nrg + 1, ntg + 1, npg))

    # Each component's four edge averages die with its _ideal_emf call, so
    # no component's temporaries are alive beside the next one's.
    # -- Ep at (r-edge, theta-edge, phi-center): -(vr*Bt - vt*Br)
    ep[..., 1:-1, 1:-1, :] = _ideal_emf(
        _avg(_avg(vr, 0), 1),                    # (nrg-1, ntg-1, npg)
        _avg(bt, 0)[..., :, 1:-1, :],            # faces avg along r, theta-edges 1..ntg-1
        _avg(_avg(vt, 0), 1),
        _avg(br, 1)[..., 1:-1, :, :],            # faces avg along theta, r-edges 1..nrg-1
    )
    # -- Er at (r-center, theta-edge, phi-edge): -(vt*Bp - vp*Bt) + eta*Jr
    er[..., :, 1:-1, 1:-1] = _ideal_emf(
        _avg(_avg(vt, 1), 2), _avg(bp, 1)[..., :, :, 1:-1],
        _avg(_avg(vp, 1), 2), _avg(bt, 2)[..., :, 1:-1, :],
    )
    # -- Et at (r-edge, theta-center, phi-edge): -(vp*Br - vr*Bp) + eta*Jt
    et[..., 1:-1, :, 1:-1] = _ideal_emf(
        _avg(_avg(vp, 0), 2), _avg(br, 2)[..., 1:-1, :, :],
        _avg(_avg(vr, 0), 2), _avg(bp, 0)[..., :, :, 1:-1],
    )

    if np.any(np.asarray(resistivity) > 0.0):
        jr, jt, jp = current
        er += resistivity * jr
        et += resistivity * jt
        ep += resistivity * jp
    return er, et, ep


def current_edges(
    br: np.ndarray, bt: np.ndarray, bp: np.ndarray, grid: LocalGrid | GridGroup
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete J = curl(B) on edges (first order, rim zeroed); ``grid``
    and the fields as in :func:`diffuse_flux_div`."""
    group = grid.group
    lead = br.shape[:-3]
    br, bt, bp = (group.members(b) for b in (br, bt, bp))
    nrg, ntg, npg = br.shape[-3] - 1, bt.shape[-2] - 1, bp.shape[-1] - 1
    jr = np.zeros(br.shape[:-3] + (nrg, ntg + 1, npg + 1))
    jt = np.zeros(br.shape[:-3] + (nrg + 1, ntg, npg + 1))
    jp = np.zeros(br.shape[:-3] + (nrg + 1, ntg + 1, npg))

    rc, re_in = group.column("rc"), group.column("re")[..., 1:-1, :, :]
    sin_tc, sin_te = group.column("sin_tc"), group.column("sin_te")
    d_rc, d_tc, d_pc = group.column("d_rc"), group.column("d_tc"), group.column("d_pc")

    # Jr = 1/(r sin t) [ d(sin t Bp)/dt - dBt/dp ] at (rc, te, pe)
    d_sbp = _diff(sin_tc * bp, 1)[..., :, :, 1:-1] / d_tc
    d_bt = _diff(bt, 2)[..., :, 1:-1, :] / d_pc
    jr[..., :, 1:-1, 1:-1] = (d_sbp - d_bt) / (rc * sin_te[..., 1:-1, :])

    # Jt = 1/(r sin t) dBr/dp - 1/r d(r Bp)/dr at (re, tc, pe)
    d_br = _diff(br, 2)[..., 1:-1, :, :] / d_pc
    d_rbp = _diff(rc * bp, 0)[..., :, :, 1:-1] / d_rc
    jt[..., 1:-1, :, 1:-1] = d_br / (re_in * sin_tc) - d_rbp / re_in

    # Jp = 1/r [ d(r Bt)/dr - dBr/dt ] at (re, te, pc)
    d_rbt = _diff(rc * bt, 0)[..., :, 1:-1, :] / d_rc
    d_br2 = _diff(br, 1)[..., 1:-1, :, :] / d_tc
    jp[..., 1:-1, 1:-1, :] = (d_rbt - d_br2) / re_in
    return tuple(j.reshape(lead + j.shape[-3:]) for j in (jr, jt, jp))  # type: ignore[return-value]


#: Per face axis, the circulation of E around the face as two edge terms,
#: first minus second, each ``(edge axis, difference axis)``: the cyclic
#: orientation (r, theta, phi).
_CIRCULATION = (((2, 1), (1, 2)), ((0, 2), (2, 0)), ((1, 0), (0, 1)))


def ct_face_component(
    er: np.ndarray, et: np.ndarray, ep: np.ndarray, grid: LocalGrid | GridGroup, axis: int
) -> np.ndarray:
    """dB/dt on the faces normal to ``axis`` from edge EMF circulation;
    ``grid`` and the EMFs as in :func:`diffuse_flux_div`.

    Faraday's law in integral form: dB_a * A_a = -circulation of E around
    the face. Faces of zero area (degenerate grids only: the polar cutout
    excludes sin = 0) get zero; every other face keeps what the EMFs give,
    a NaN or infinite one included, so a bad EMF reaches the health checks.
    """
    group = grid.group
    emf, length = tuple(group.members(e) for e in (er, et, ep)), group.edge_lengths
    (a, da), (b, db) = _CIRCULATION[axis]
    circ = _diff(emf[a] * length[a], da) - _diff(emf[b] * length[b], db)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -circ / group.face_areas[axis]
    zero = group.zero_area[axis]
    if zero is not None:
        np.copyto(out, 0.0, where=zero)
    return out.reshape(er.shape[:-3] + out.shape[-3:])


def lorentz_force(
    br: np.ndarray,
    bt: np.ndarray,
    bp: np.ndarray,
    current: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J x B at cell centers (first order).

    J, :func:`current_edges` of this B, is averaged from edges to centers;
    B is the face field averaged to centers.
    """
    jr_e, jt_e, jp_e = current
    # average edge currents to centers: two transverse averages each
    jr = _avg(_avg(jr_e, 1), 2)
    jt = _avg(_avg(jt_e, 0), 2)
    jp = _avg(_avg(jp_e, 0), 1)
    bcr, bct, bcp = face_to_center(br, bt, bp)
    fr = jt * bcp - jp * bct
    ft = jp * bcr - jr * bcp
    fp = jr * bct - jt * bcr
    return fr, ft, fp
