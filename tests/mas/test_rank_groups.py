"""Rank groups: one numpy pass over the stacked blocks of every rank of one
ghosted shape equals that rank's own call, bit for bit.

Over real decompositions of 1-8 ranks (even ones are one group, ragged
ones several, not always of consecutive ranks), member axes absent, 1 and
3, and scalar or per-member ``nu``/``dt``: the rows of a group call of
``implicit_matvec`` and ``conduction_rhs`` are the per-rank calls.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mas import conduction, viscosity
from repro.mas.constants import PhysicsParams
from repro.mas.grid import GridGroup, LocalGrid, SphericalGrid
from repro.mas.groups import rank_groups
from repro.mas.state import ALL_FIELDS, MhdState
from repro.mpi.decomp import Decomposition3D


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def decomposed(shape, nranks, members=None):
    """Local grids of a real decomposition, grouped, with zero states."""
    grid = SphericalGrid.build(shape, r_ratio=1.1)
    dec = Decomposition3D(grid.shape, nranks)
    grids = [LocalGrid.from_global(grid, dec, r, ghost=1) for r in range(nranks)]
    groups, states = rank_groups(
        grids, lambda r: [MhdState.allocate(grids[r]) for _ in range(members or 1)],
        batched=members is not None,
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
@given(shape=SHAPES, nranks=st.integers(1, 8), members=st.sampled_from([None, 2]))
def test_states_are_rows_of_one_block_per_group(shape, nranks, members):
    grids, groups, states = decomposed(shape, nranks, members)
    for group in groups:
        for name in ALL_FIELDS:
            block = group.state[name]
            assert block.flags.c_contiguous and block.shape[0] == len(group.ranks)
            for row, r in enumerate(group.ranks):
                assert states[r].get(name).base is not None
                assert np.shares_memory(states[r].get(name), block[row])
                assert states[r].get(name).shape == block.shape[1:]
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
