"""Rank groups: one numpy pass over the stacked blocks of every rank of one
ghosted shape equals that rank's own call, bit for bit.

Over real decompositions of 1-8 ranks (even ones are one group, ragged
ones several, not always of consecutive ranks), member axes absent, 1, 2
and 3, and scalar or per-member coefficients: the rows of a group call of
``implicit_matvec``, ``conduction_rhs``, ``current_edges``,
``lorentz_force``, ``emf_edges``, ``ct_face_component`` and
``grad_center`` (its interior, which is ``np.gradient``'s) are the
per-rank calls, and so are the model's shell mass-flux sums. With two
members on two ranks (``B == G``) a metric missing its member axis would
broadcast instead of raising; these rows catch it. A launch carries the
group's work in its first rank's spec only; the other ranks share one
body-less spec.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import CodeVersion, runtime_config_for
from repro.mas import conduction, operators as ops, viscosity
from repro.mas.constants import PhysicsParams
from repro.mas.grid import GridGroup, LocalGrid, SphericalGrid, gradient_coefficients
from repro.mas.groups import rank_groups
from repro.mas.implicit_solve import dot_rows
from repro.mas.model import MasModel, ModelConfig
from repro.mas.state import ALL_FIELDS, MhdState
from repro.mpi.decomp import Decomposition3D
from repro.runtime.kernel import LAUNCHES, KernelSpec
from tests.mas import reference_operators as ref


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def decomposed(shape, nranks, members=1):
    """Local grids of a real decomposition, grouped, with zero states."""
    grid = SphericalGrid.build(shape, r_ratio=1.1)
    dec = Decomposition3D(grid.shape, nranks)
    grids = [LocalGrid.from_global(grid, dec, r, ghost=1) for r in range(nranks)]
    groups, states = rank_groups(
        grids, lambda r: [MhdState.allocate(grids[r]) for _ in range(members)]
    )
    return grids, groups, states


def member_coeff(rng, lead, per_member):
    if per_member and lead:
        return rng.random(lead + (1, 1, 1))
    return float(rng.random())


SHAPES = st.tuples(
    st.sampled_from([4, 6, 10]), st.sampled_from([4, 8]), st.sampled_from([8, 12, 16])
)


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, nranks=st.integers(1, 8), lead=st.sampled_from([(), (1,), (3,)]),
       nu_per_member=st.booleans(), dt_per_member=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_group_call_is_its_ranks_calls(shape, nranks, lead, nu_per_member,
                                         dt_per_member, seed):
    rng = np.random.default_rng(seed)
    grids, groups, _ = decomposed(shape, nranks)
    assert sorted(r for g in groups for r in g.ranks) == list(range(nranks))
    nu = member_coeff(rng, lead, nu_per_member)
    dt = member_coeff(rng, lead, dt_per_member)
    params = PhysicsParams()
    for group in groups:
        assert len({grids[r].shape for r in group.ranks}) == 1
        block = (len(group.ranks),) + lead + grids[group.ranks[0]].shape
        v = rng.standard_normal(block)
        temp, rho = rng.random(block) + 0.5, rng.random(block) + 0.5
        temp.flat[0] = -1.0  # below the floor in the first rank's row
        matvec = viscosity.implicit_matvec(v, group.stencil, nu, dt)
        heat = conduction.conduction_rhs(temp, rho, group.stencil, params)
        for row, r in enumerate(group.ranks):
            assert same_bits(matvec[row], viscosity.implicit_matvec(v[row], grids[r], nu, dt))
            assert same_bits(
                heat[row], conduction.conduction_rhs(temp[row], rho[row], grids[r], params)
            )


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, nranks=st.integers(1, 8), members=st.sampled_from([1, 2]))
def test_states_are_rows_of_one_block_per_group(shape, nranks, members):
    grids, groups, states = decomposed(shape, nranks, members)
    for group in groups:
        for name in ALL_FIELDS:
            block = group.fields[name]
            assert block.flags.c_contiguous and block.shape[:2] == (len(group.ranks), members)
            for row, r in enumerate(group.ranks):
                assert states[r].get(name).base is not None
                assert np.shares_memory(states[r].get(name), block[row])
                # the scalar edge: one member's arrays are 3-D
                want = block.shape[2:] if members == 1 else block.shape[1:]
                assert states[r].get(name).shape == want
        if len(group.ranks) == 1:  # a group of one stores nothing twice
            (r,) = group.ranks
            assert group.stencil is grids[r].group
            assert np.shares_memory(group.stencil.flat.area[0], grids[r].flat.area[0])
        # nor does a larger one: its ranks' own calls use its scratch rows
        whole = group.stencil.scratch(2)
        for row, r in enumerate(group.ranks):
            own = grids[r].group.scratch(2)
            for mine, stacked in zip(own[1:], whole[1:]):
                assert np.shares_memory(mine, stacked[row])
            assert np.shares_memory(own.coeff, whole.coeff[:, row])
            others = [x for x in group.ranks if x != r]
            assert not any(np.shares_memory(own.flux, grids[x].group.scratch(2).flux)
                           for x in others)


@settings(max_examples=30, deadline=None)
@given(nranks=st.sampled_from([1, 2, 3]), members=st.sampled_from([1, 3]),
       name=st.sampled_from(ALL_FIELDS), seed=st.integers(0, 2**32 - 1))
def test_a_rank_state_writes_through_to_its_block_and_back(nranks, members, name, seed):
    """A lone rank, an even group (2 ranks) and ragged groups (3 ranks):
    what is written to a rank's state is in its block row, and the reverse,
    at B = 1 (a 3-D view of member 0) and B = 3."""
    rng = np.random.default_rng(seed)
    grids, groups, states = decomposed((10, 8, 16), nranks, members)
    for group in groups:
        block = group.fields[name]
        for row, r in enumerate(group.ranks):
            own = states[r].get(name)
            assert own.ndim == (3 if members == 1 else 4)
            value = rng.standard_normal(own.shape)
            own[...] = value
            assert same_bits(block[row].reshape(own.shape), value)
            value = rng.standard_normal(block[row, 0].shape)
            block[row, 0] = value
            assert same_bits(own if members == 1 else own[0], value)


@settings(max_examples=60, deadline=None)
@given(g=st.integers(1, 8), b=st.integers(1, 3), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_flat_dot_rows_are_per_row_vdots(g, b, k, seed):
    """``dot_rows`` of k pairs of (G, B, ...) blocks, one of them shared by
    two pairs as the solver's (r, r) is, equals ``np.vdot`` of each (pair,
    rank, member) row on its own, bit for bit."""
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((g, b, 3, 4, 5)) for _ in range(k + 1)]
    pairs = [(blocks[i], blocks[i + 1] if i % 2 else blocks[i]) for i in range(k)]
    got = dot_rows(pairs)
    assert got.shape == (k, g, b) and got.dtype == np.float64
    for p, (x, y) in enumerate(pairs):
        for rank in range(g):
            for member in range(b):
                want = np.vdot(x[rank, member], y[rank, member])
                assert got[p, rank, member].tobytes() == want.tobytes()


def test_a_grid_used_before_grouping_takes_its_row_of_the_group_scratch():
    grid = SphericalGrid.build((8, 6, 8), r_ratio=1.1)
    dec = Decomposition3D(grid.shape, 2)
    grids = [LocalGrid.from_global(grid, dec, r, ghost=1) for r in range(2)]
    early = [g.group.scratch(2) for g in grids]
    group = GridGroup.of(grids)
    whole = group.scratch(2)
    for row, g in enumerate(grids):
        own = g.group.scratch(2)
        assert np.shares_memory(own.flux, whole.flux[row])
        assert not np.shares_memory(own.flux, early[row].flux)


def test_a_ragged_decomposition_has_several_groups():
    _, groups, _ = decomposed((10, 8, 16), 3)
    assert [g.ranks for g in groups] == [(0,), (1, 2)]
    _, groups, _ = decomposed((10, 8, 16), 6)  # not consecutive ranks
    assert [g.ranks for g in groups] == [(0, 3), (1, 2, 4, 5)]
    _, groups, _ = decomposed((10, 8, 16), 8)
    assert [g.ranks for g in groups] == [tuple(range(8))]


LEADS = st.sampled_from([(), (1,), (2,), (3,)])


def parent_grad_center(f, grid):
    """The gradient as the parent computed it: ``np.gradient`` per axis."""
    rc = grid.rc[:, None, None]
    return (
        np.gradient(f, grid.rc, axis=f.ndim - 3),
        np.gradient(f, grid.tc, axis=f.ndim - 2) / rc,
        np.gradient(f, grid.pc, axis=f.ndim - 1) / (rc * np.sin(grid.tc)[None, :, None]),
    )


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, nranks=st.integers(1, 8), lead=LEADS,
       eta_per_member=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_staggered_operators_on_a_group_are_its_ranks_calls(
    shape, nranks, lead, eta_per_member, seed
):
    rng = np.random.default_rng(seed)
    grids, groups, _ = decomposed(shape, nranks)
    eta = member_coeff(rng, lead, eta_per_member)
    for group in groups:
        first = grids[group.ranks[0]]
        g = (len(group.ranks),) + lead
        v = [rng.standard_normal(g + first.shape) for _ in range(3)]
        b = [rng.standard_normal(g + first.face_shape(axis)) for axis in range(3)]
        pres = rng.random(g + first.shape) + 0.5
        j = ops.current_edges(*b, group.stencil)
        lor = ops.lorentz_force(*b, j)
        emf = ops.emf_edges(*v, *b, j, resistivity=eta)
        db = [ops.ct_face_component(*emf, group.stencil, axis) for axis in range(3)]
        grad = ops.grad_center(pres, group.stencil)
        for row, r in enumerate(group.ranks):
            grid, i = grids[r], grids[r].interior()
            b_r = [x[row] for x in b]
            j_r = ops.current_edges(*b_r, grid)
            emf_r = ops.emf_edges(*(x[row] for x in v), *b_r, j_r, resistivity=eta)
            pairs = [
                *zip((x[row] for x in j), j_r),
                *zip((x[row] for x in lor), ops.lorentz_force(*b_r, j_r)),
                *zip((x[row] for x in emf), emf_r),
                *((db[axis][row], ops.ct_face_component(*emf_r, grid, axis))
                  for axis in range(3)),
            ]
            for got, want in pairs:
                assert same_bits(got, want)
            own = ops.grad_center(pres[row], grid)
            for got, mine, parent in zip(grad, own, parent_grad_center(pres[row], grid)):
                assert same_bits(got[row][i], mine[i])
                assert same_bits(mine[i], parent[i])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_the_gradient_helper_takes_numpy_branch_on_equal_differences(axis):
    """Coordinates with exactly equal differences take ``np.gradient``'s
    uniform branch, ``(f[2:] - f[:-2]) / (2 dx)``; others its three-point
    one. Both interiors are numpy's to the last bit."""
    rng = np.random.default_rng(axis)
    f = rng.standard_normal((2, 7, 6, 9))
    n = f.shape[f.ndim - 3 + axis]
    uniform = np.arange(n) * 0.25 + 1.0
    stretched = np.cumsum(rng.random(n) + 0.5)
    inner = [slice(None)] * 3
    inner[axis] = slice(1, -1)
    for x, branch in ((uniform, 1), (stretched, 3)):
        coefficients = gradient_coefficients(x)
        assert len(coefficients) == branch
        shape = [1, 1, 1]
        shape[axis] = -1
        got = ops.gradient_interior(f, axis, tuple(np.reshape(c, shape) for c in coefficients))
        want = np.gradient(f, x, axis=f.ndim - 3 + axis)[(Ellipsis, *inner)]
        assert same_bits(got, want)


def test_a_group_whose_ranks_take_both_branches_runs_each_on_its_rows():
    """A uniform r grid on four ranks: phi is uniform on ranks 0 and 2
    only, so the group's phi gradient runs four runs of rows, and each
    rank's interior is still ``np.gradient``'s."""
    grid = SphericalGrid.build((8, 6, 8), r_ratio=1.0)
    dec = Decomposition3D(grid.shape, 4)
    grids = [LocalGrid.from_global(grid, dec, r, ghost=1) for r in range(4)]
    group = GridGroup.of(grids)
    assert [len(c) for _, c in group.gradient(0)] == [1]
    assert [len(c) for _, c in group.gradient(2)] == [1, 3, 1, 3]
    pres = np.random.default_rng(1).random((4, 2) + grids[0].shape) + 0.5
    grad = ops.grad_center(pres, group)
    for row, g in enumerate(grids):
        i = g.interior()
        for got, parent in zip(grad, parent_grad_center(pres[row], g)):
            assert same_bits(got[row][i], parent[i])


def test_a_group_of_one_views_its_grids_metrics():
    grid = SphericalGrid.build((8, 6, 8), r_ratio=1.1)
    local = LocalGrid.from_global(grid, Decomposition3D(grid.shape, 1), 0, ghost=1)
    group = local.group
    for stacked, own in zip(group.face_areas, (local.area_r, local.area_t, local.area_p)):
        assert stacked.shape == (1, 1) + own.shape and np.shares_memory(stacked, own)
    for name, own in (("rc", local.rc), ("re", local.re)):
        assert np.shares_memory(group.column(name), own)
    # built once from the grid's edges, as the grid built them before
    for stacked, parent in zip(group.edge_lengths, ref._edge_lengths(local)):
        assert same_bits(stacked[0, 0], parent)


@settings(max_examples=15, deadline=None)
@given(nranks=st.integers(1, 8), members=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_the_shell_mass_flux_of_a_group_is_its_ranks_sums(nranks, members, seed):
    rng = np.random.default_rng(seed)
    m = MasModel(
        ModelConfig(shape=(8, 6, 16), num_ranks=nranks, ensemble_size=members,
                    nominal_shape=(32, 24, 48), extra_model_arrays=0),
        runtime_config_for(CodeVersion.A),
    )
    for group in m.groups:
        for name in ("rho", "vr"):
            group.fields[name][...] = rng.standard_normal(group.fields[name].shape)
    m._shell_diagnostics()
    for r, (state, grid) in enumerate(zip(m.states, m.local_grids)):
        i = grid.interior()
        rhovr = state.rho[i] * state.vr[i]
        area = grid.area_r[1:-1][:, 1:-1, 1:-1][: rhovr.shape[-3]]
        want = (rhovr * area).sum(axis=(-2, -1))
        # (B, nr) per rank; a scalar run's one member's profile is 1-D
        assert same_bits(m._last_flux_profile[r].reshape(want.shape), want)


@pytest.mark.parametrize("nranks, ranks, bound", [
    (8, [tuple(range(8))], 322),
    (6, [(0, 3), (1, 2, 4, 5)], 491),
])
def test_a_launch_shares_one_bodyless_spec_across_later_ranks(monkeypatch, nranks, ranks,
                                                             bound):
    """Every rank issues every kernel through its own entry point; per
    launch the first rank of each group gets the spec with the body, and
    every other rank the same body-less object (one per distinct spec). A
    step builds at most ``bound`` specs (1,576 at 8 ranks and 1,182 at 6
    when every rank built its own)."""
    m = MasModel(
        ModelConfig(shape=(10, 8, 16), num_ranks=nranks, pcg_variant="ca",
                    pcg_precond="jacobi", pcg_iters=8, pcg_tol=0.0, sts_stages=4),
        runtime_config_for(CodeVersion.A),
    )
    assert [g.ranks for g in m.groups] == ranks
    m.step()
    issued: list[list[KernelSpec]] = [[] for _ in m.ranks]
    for r, rt in enumerate(m.ranks):
        for entry in LAUNCHES:
            def record(spec, issue=getattr(rt, entry), specs=issued[r]):
                specs.append(spec)
                return issue(spec)
            monkeypatch.setattr(rt, entry, record)
    built = []
    check = KernelSpec.__post_init__
    monkeypatch.setattr(KernelSpec, "__post_init__",
                        lambda spec: (built.append(spec.name), check(spec))[1])
    m.step()

    # the halo's pack and unpack kernels are per rank, whatever its group
    model = [[s for s in specs if not s.name.startswith("halo_")] for specs in issued]
    assert len({len(specs) for specs in model}) == 1
    with_body = shared = 0
    for launch in zip(*model):
        assert len({s.name for s in launch}) == 1
        firsts = [launch[g.ranks[0]] for g in m.groups]
        if firsts[0].body is None:  # a kernel without numpy work
            assert all(s is firsts[0] for s in launch)
            continue
        with_body += 1
        assert all(s.body is not None for s in firsts)
        later = [launch[r] for g in m.groups for r in g.ranks[1:]]
        assert all(s.body is None for s in later)
        # one object per distinct spec: boundary_fill's bytes follow each
        # rank's nominal shape, which differs at 6 ranks
        assert len({id(s) for s in later}) == len(set(later))
        shared += len(set(later)) == 1
    assert with_body > 100 and shared >= with_body - 2
    assert len(built) <= bound


@pytest.mark.parametrize("nranks, bound", [(8, 442), (6, 731)])
def test_overlapped_passes_are_built_once_per_kernel_and_nominal_shape(monkeypatch, nranks,
                                                                     bound):
    """With an overlapped exchange each stencil kernel splits into an
    interior pass, issued now, and a body-less shell pass, deferred until
    the exchange finishes. Both follow the rank's nominal shape, and each is
    built once per (launch, nominal shape, with or without body): a step
    builds at most ``bound`` specs (962 at 8 ranks and 971 at 6 when every
    rank split its own), and ranks of one nominal shape defer one shell."""
    m = MasModel(
        ModelConfig(shape=(10, 8, 16), num_ranks=nranks, pcg_variant="ca", halo_overlap=True,
                    pcg_precond="jacobi", pcg_iters=8, pcg_tol=0.0, sts_stages=4),
        runtime_config_for(CodeVersion.A),
    )
    assert m.halo_overlap
    m.step()
    built = []
    check = KernelSpec.__post_init__
    monkeypatch.setattr(KernelSpec, "__post_init__",
                        lambda spec: (built.append(spec.name), check(spec))[1])
    shells = []
    finish = m._finish_exchange
    monkeypatch.setattr(m, "_finish_exchange",
                        lambda pending: (shells.append(list(m._deferred_shell)), finish(pending)))
    m.step()
    assert len(built) <= bound
    shapes = {m.nominal_decomp.local_shape(r) for r in range(nranks)}
    for deferred in shells:
        by_name: dict = {}
        for _, spec in deferred:
            by_name.setdefault(spec.name, set()).add(id(spec))
        assert by_name and all(len(ids) <= len(shapes) for ids in by_name.values())

