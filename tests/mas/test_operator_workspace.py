"""The step's operators against the parent's bodies.

Three groups: bit-for-bit equivalence with ``reference_operators`` over
random grids, member shapes, coefficient forms and memory layouts; safety
of the per-grid flat scratch (nothing returned aliases it, grids and member
shapes do not share it, it is freed with its grid); and an allocation
guard under ``tracemalloc`` that does not depend on host speed.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mas import conduction, operators as ops, viscosity
from repro.mas.constants import PhysicsParams
from repro.mas.grid import GridGroup, LocalGrid, SphericalGrid
from repro.mpi.decomp import Decomposition3D
from tests.mas import reference_operators as ref


# -- strategies ------------------------------------------------------------------


@st.composite
def edges(draw, n, lo, hi):
    """``n`` cells of random positive widths spanning [lo, hi]."""
    w = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w)]) / w.sum()


@st.composite
def grids(draw):
    """A stretched LocalGrid: built from raw edges with ghosted extents down
    to 2 (no interior) and 3 (one interior cell), or one rank's block of a
    decomposed global grid."""
    if draw(st.booleans()):
        shape = draw(st.tuples(*[st.integers(2, 6)] * 3))
        return LocalGrid(
            re=draw(edges(shape[0], 1.0, draw(st.floats(1.5, 4.0)))),
            te=draw(edges(shape[1], 0.15, np.pi - 0.15)),
            pe=draw(edges(shape[2], 0.0, 2 * np.pi)),
            ghost=1,
            interior_shape=tuple(n - 2 for n in shape),
        )
    shape = draw(st.tuples(*[st.sampled_from([4, 6, 8])] * 3))
    g = SphericalGrid.build(shape, r_ratio=draw(st.floats(1.0, 1.3)))
    dec = Decomposition3D(g.shape, draw(st.sampled_from([1, 2, 4, 8])))
    return LocalGrid.from_global(g, dec, draw(st.integers(0, dec.nranks - 1)), ghost=1)


LEADS = st.sampled_from([(), (1,), (3,)])
LAYOUTS = st.sampled_from(["c", "fortran", "strided", "reversed"])


def field(rng, shape, layout, *, positive=False):
    """Random values of ``shape`` in the requested memory layout."""
    draw = (lambda s: rng.random(s) + 0.5) if positive else rng.standard_normal
    if layout == "fortran":
        return np.asfortranarray(draw(shape))
    if layout == "strided":
        return draw(shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "reversed":
        return draw(shape)[..., ::-1, :]
    return draw(shape)


def member_coeff(rng, lead, per_member):
    """A non-negative scalar, or a ``lead + (1, 1, 1)`` per-member array."""
    if per_member and lead:
        return rng.random(lead + (1, 1, 1))
    return float(rng.random())


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def face_view(faces, axis, shape):
    """One axis of ``harmonic_face_coeff``'s flat faces as the face-shaped
    array (one shorter along ``axis``) the parent returned."""
    cut = [slice(None)] * 3
    cut[axis] = slice(None, -1)
    return faces[axis].reshape(shape)[(Ellipsis, *cut)]


CASE = dict(grid=grids(), lead=LEADS, layout=LAYOUTS, seed=st.integers(0, 2**32 - 1))


# -- equivalence with the parent's bodies ---------------------------------------


class TestBitwiseEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(**CASE, with_coeff=st.booleans())
    def test_diffuse_flux_div(self, grid, lead, layout, seed, with_coeff):
        rng = np.random.default_rng(seed)
        f = field(rng, lead + grid.shape, layout)
        new = old = None
        if with_coeff:
            c = field(rng, lead + grid.shape, layout, positive=True)
            new, old = ops.harmonic_face_coeff(c, grid), ref.harmonic_face_coeff(c)
        before = f.tobytes()
        assert same_bits(ops.diffuse_flux_div(f, grid, new), ref.diffuse_flux_div(f, grid, old))
        assert f.tobytes() == before

    @settings(max_examples=120, deadline=None)
    @given(**CASE, nu_per_member=st.booleans(), dt_per_member=st.booleans())
    def test_viscous_operators(self, grid, lead, layout, seed, nu_per_member, dt_per_member):
        rng = np.random.default_rng(seed)
        v = field(rng, lead + grid.shape, layout)
        nu = member_coeff(rng, lead, nu_per_member)
        dt = member_coeff(rng, lead, dt_per_member)
        before = v.tobytes()
        assert same_bits(viscosity.viscous_rhs(v, grid, nu), ref.viscous_rhs(v, grid, nu))
        assert same_bits(
            viscosity.implicit_matvec(v, grid, nu, dt), ref.implicit_matvec(v, grid, nu, dt)
        )
        assert same_bits(viscosity.jacobi_diagonal(grid, nu, dt), ref.jacobi_diagonal(grid, nu, dt))
        assert v.tobytes() == before

    @settings(max_examples=80, deadline=None)
    @given(**CASE)
    def test_conduction_rhs(self, grid, lead, layout, seed):
        rng = np.random.default_rng(seed)
        params = PhysicsParams()
        temp = field(rng, lead + grid.shape, layout, positive=True)
        temp.flat[0] = -1.0  # below the floor: kappa must clamp, not go NaN
        rho = field(rng, lead + grid.shape, layout, positive=True)
        before = temp.tobytes(), rho.tobytes()
        assert same_bits(conduction.kappa_centered(temp, params), ref.kappa_centered(temp, params))
        assert same_bits(
            conduction.conduction_rhs(temp, rho, grid, params),
            ref.conduction_rhs(temp, rho, grid, params),
        )
        assert (temp.tobytes(), rho.tobytes()) == before

    @settings(max_examples=40, deadline=None)
    @given(**CASE)
    def test_harmonic_face_coeff(self, grid, lead, layout, seed):
        c = field(np.random.default_rng(seed), lead + grid.shape, layout, positive=True)
        faces = ops.harmonic_face_coeff(c, grid)
        for axis, old in enumerate(ref.harmonic_face_coeff(c)):
            assert same_bits(face_view(faces, axis, c.shape), old)

    @settings(max_examples=80, deadline=None)
    @given(**CASE, still=st.booleans())
    def test_advection_and_divergence(self, grid, lead, layout, seed, still):
        rng = np.random.default_rng(seed)
        f, vr, vt, vp = (field(rng, lead + grid.shape, layout) for _ in range(4))
        if still:  # zero face velocities: the donor is the upper cell
            vr[...] = vt[...] = 0.0
        before = [a.tobytes() for a in (f, vr, vt, vp)]
        upwind = ops.upwind_faces(vr, vt, vp, grid)
        assert same_bits(ops.advect_upwind(f, upwind, grid), ref.advect_upwind(f, vr, vt, vp, grid))
        assert same_bits(ops.div_center(vr, vt, vp, grid), ref.div_center(vr, vt, vp, grid))
        assert [a.tobytes() for a in (f, vr, vt, vp)] == before

    @settings(max_examples=80, deadline=None)
    @given(**CASE, eta_per_member=st.booleans())
    def test_constrained_transport(self, grid, lead, layout, seed, eta_per_member):
        rng = np.random.default_rng(seed)
        v = [field(rng, lead + grid.shape, layout) for _ in range(3)]
        b = [field(rng, lead + grid.face_shape(axis), layout) for axis in range(3)]
        eta = member_coeff(rng, lead, eta_per_member)
        j = ops.current_edges(*b, grid)
        for new, old in zip(j, ref.current_edges(*b, grid)):
            assert same_bits(new, old)
        old_emf = ref.emf_edges(*v, *b, grid, resistivity=eta)
        emf = ops.emf_edges(*v, *b, j, resistivity=eta)
        for new, old in zip(emf, old_emf):
            assert same_bits(new, old)
        for new, old in zip(ops.lorentz_force(*b, j), ref.lorentz_force(*b, grid)):
            assert same_bits(new, old)
        for axis, old in enumerate(ref.ct_face_update(*old_emf, grid)):
            assert same_bits(ops.ct_face_component(*emf, grid, axis), old)

    @pytest.mark.parametrize("shape", [(2, 5, 5), (5, 2, 5), (5, 5, 2), (2, 2, 2)])
    def test_no_interior_gives_zeros(self, shape):
        grid = LocalGrid(
            re=np.linspace(1.0, 2.0, shape[0] + 1),
            te=np.linspace(0.2, 2.9, shape[1] + 1),
            pe=np.linspace(0.0, 2 * np.pi, shape[2] + 1),
            ghost=1,
            interior_shape=tuple(n - 2 for n in shape),
        )
        f = np.random.default_rng(0).standard_normal((3,) + shape)
        assert not ops.diffuse_flux_div(f, grid).any()
        assert np.array_equal(viscosity.implicit_matvec(f, grid, 0.3, 0.1), f)


# -- the scratch workspace never leaks ------------------------------------------


def local_grid(shape=(6, 5, 7)):
    g = SphericalGrid.build(shape)
    return LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)


OPERATORS = {
    "advect_upwind": lambda f, grid: ops.advect_upwind(
        f, ops.upwind_faces(f, -f, 0.5 * f, grid), grid
    ),
    "div_center": lambda f, grid: ops.div_center(f, -f, 0.5 * f, grid),
    "diffuse_flux_div": ops.diffuse_flux_div,
    "diffuse_flux_div_coeff": lambda f, grid: ops.diffuse_flux_div(
        f, grid, ops.harmonic_face_coeff(np.abs(f) + 1.0, grid)
    ),
    "implicit_matvec": lambda f, grid: viscosity.implicit_matvec(f, grid, 0.02, 0.1),
    "conduction_rhs": lambda f, grid: conduction.conduction_rhs(
        np.abs(f) + 1.0, np.abs(f) + 0.5, grid, PhysicsParams()
    ),
}


@pytest.fixture(params=sorted(OPERATORS))
def operator(request):
    return OPERATORS[request.param]


class TestWorkspaceSafety:
    def test_results_alias_nothing(self, operator):
        grid = local_grid()
        rng = np.random.default_rng(0)
        f1, f2 = rng.standard_normal((2, 3) + grid.shape)
        first = operator(f1, grid)
        kept = first.copy()
        second = operator(f2, grid)
        expect = second.copy()
        assert np.array_equal(first, kept), "a later call rewrote an earlier result"
        assert not np.shares_memory(first, second)
        for result, source in ((first, f1), (second, f2)):
            assert not np.shares_memory(result, source)
            for buf in grid.group.scratch(3):
                assert not np.shares_memory(result, buf)
        first[...] = np.nan
        assert np.array_equal(second, expect)
        assert same_bits(operator(f2, grid), expect), "scratch state leaked into the next call"

    def test_two_grids_and_two_member_shapes_interleave(self, operator):
        a, b = local_grid((6, 5, 7)), local_grid((4, 8, 5))
        rng = np.random.default_rng(1)
        fa, fb = rng.standard_normal(a.shape), rng.standard_normal(b.shape)
        fa3 = rng.standard_normal((3,) + a.shape)
        alone = [operator(fa, local_grid((6, 5, 7))), operator(fb, local_grid((4, 8, 5))),
                 operator(fa3, local_grid((6, 5, 7)))]
        for _ in range(2):
            mixed = [operator(fa, a), operator(fb, b), operator(fa3, a)]
            for got, want in zip(mixed, alone):
                assert same_bits(got, want)
        assert not any(
            np.shares_memory(x, y)
            for x in a.group.scratch(1) for y in a.group.scratch(3)
        )
        # a batched call is its members run one by one
        for m in range(3):
            assert same_bits(mixed[2][m], operator(fa3[m], a))

    def test_scratch_dies_with_its_grid(self):
        grid = local_grid()
        ops.diffuse_flux_div(np.ones(grid.shape), grid)
        ops.diffuse_flux_div(np.ones((2,) + grid.shape), grid)
        refs = [weakref.ref(buf.base if buf.base is not None else buf)
                for rows in (1, 2) for buf in grid.group.scratch(rows)]
        assert all(r() is not None for r in refs)
        del grid
        gc.collect()
        assert all(r() is None for r in refs)


# -- allocation guard ------------------------------------------------------------


def peak_traced_bytes(call):
    """Peak bytes (Python and numpy domains) allocated while ``call`` runs."""
    call()  # warm: metrics cached, scratch allocated
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestAllocationGuard:
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_only_the_result_is_allocated(self, lead):
        # Big enough that numpy's fixed per-call iterator buffers (8192
        # elements per strided operand, whatever the array size) stay inside
        # the quarter of f.nbytes the budget leaves above the result itself.
        grid = local_grid((48, 40, 56))
        f = np.random.default_rng(2).standard_normal(lead + grid.shape)
        nu = np.full(lead + (1, 1, 1), 0.02) if lead else 0.02
        budget = 1.25 * f.nbytes
        assert peak_traced_bytes(lambda: ops.diffuse_flux_div(f, grid)) <= budget
        assert peak_traced_bytes(lambda: viscosity.implicit_matvec(f, grid, nu, 0.1)) <= budget
        temp, rho = np.abs(f) + 1.0, np.abs(f) + 0.5
        assert peak_traced_bytes(
            lambda: conduction.conduction_rhs(temp, rho, grid, PhysicsParams())
        ) <= budget
        # the guard can see a temporary: the parent's body needs many times more
        assert peak_traced_bytes(lambda: ref.diffuse_flux_div(f, grid)) > 4 * f.nbytes

    def test_a_group_call_allocates_only_the_result(self):
        # two ranks of one ghosted shape, stacked: (2, 50, 42, 58)
        g = SphericalGrid.build((96, 40, 56))
        dec = Decomposition3D(g.shape, 2)
        grids = [LocalGrid.from_global(g, dec, r, ghost=1) for r in range(2)]
        group = GridGroup(grids)
        f = np.random.default_rng(3).standard_normal((2,) + grids[0].shape)
        budget = 1.25 * f.nbytes
        assert peak_traced_bytes(lambda: ops.diffuse_flux_div(f, group)) <= budget
        assert peak_traced_bytes(lambda: viscosity.implicit_matvec(f, group, 0.02, 0.1)) <= budget
        temp, rho = np.abs(f) + 1.0, np.abs(f) + 0.5
        assert peak_traced_bytes(
            lambda: conduction.conduction_rhs(temp, rho, group, PhysicsParams())
        ) <= budget
