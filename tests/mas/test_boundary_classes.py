"""A rank group's boundary fill is its ranks' fills, one by one, to the bit.

``reference_state`` and ``reference_centered`` are the per-rank fills as
they stood before ranks were grouped: each rank asks the decomposition
which global faces it owns and fills them in order. The group fill does
each face once, over the rows of its blocks that own it
(:class:`~repro.mas.boundary.BoundaryClasses`).
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.mas.boundary import (
    BoundaryClasses,
    BoundaryProfiles,
    apply_boundaries,
    apply_centered_boundary,
)
from repro.mas.state import ALL_FIELDS, STAGGER_AXES
from repro.mpi.decomp import Decomposition3D
from tests.mpi.test_halo_plan import rank_groups


def _owns(decomp, rank, axis, direction):
    return decomp.neighbor(rank, axis, direction) is None


def reference_state(state, decomp, rank, rho_inner, temp_inner):
    """One rank's state fill; ``state`` maps field names to its arrays."""
    if _owns(decomp, rank, 0, -1):
        state["rho"][..., 0, :, :] = rho_inner
        state["temp"][..., 0, :, :] = temp_inner
        for name in ("vr", "vt", "vp"):
            state[name][..., 0, :, :] = -state[name][..., 1, :, :]
        for name in ("br", "bt", "bp"):
            state[name][..., 0, :, :] = state[name][..., 1, :, :]
    if _owns(decomp, rank, 0, 1):
        for name in ("rho", "temp", "vr", "vt", "vp", "br", "bt", "bp"):
            a = state[name]
            a[..., -1, :, :] = a[..., -2, :, :]
        outer = state["vr"][..., -1, :, :]
        np.maximum(outer, 0.0, out=outer)
    for direction, ghost_i, mirror_i in ((-1, 0, 1), (1, -1, -2)):
        if not _owns(decomp, rank, 1, direction):
            continue
        for name in ("rho", "temp", "vr", "vp", "br", "bt", "bp"):
            a = state[name]
            a[..., :, ghost_i, :] = a[..., :, mirror_i, :]
        state["vt"][..., :, ghost_i, :] = -state["vt"][..., :, mirror_i, :]


def reference_centered(arr, decomp, rank, *, antisymmetric_theta=False):
    """One rank's work-array fill."""
    if _owns(decomp, rank, 0, -1):
        arr[..., 0, :, :] = arr[..., 1, :, :]
    if _owns(decomp, rank, 0, 1):
        arr[..., -1, :, :] = arr[..., -2, :, :]
    for direction, ghost_i, mirror_i in ((-1, 0, 1), (1, -1, -2)):
        if _owns(decomp, rank, 1, direction):
            if antisymmetric_theta:
                arr[..., :, ghost_i, :] = -arr[..., :, mirror_i, :]
            else:
                arr[..., :, ghost_i, :] = arr[..., :, mirror_i, :]


def row_of(block, row):
    """A rank's arrays in a ``(G, B, ...)`` block, as ``groups.rank_view``."""
    return block[row, 0] if block.shape[1] == 1 else block[row]


@st.composite
def decompositions(draw):
    n = draw(st.integers(1, 8))
    dims = draw(st.sampled_from(
        [(a, b, n // (a * b)) for a in range(1, n + 1) for b in range(1, n + 1)
         if n % (a * b) == 0]
    ))
    shape = tuple(draw(st.integers(max(3, d), 9)) for d in dims)
    try:
        dec = Decomposition3D(shape, n, dims=dims)
    except ValueError:
        assume(False)
    assume(min(min(dec.local_shape(r)) for r in dec.iter_ranks()) >= 1)
    return dec


def random_block(rng, dec, ranks, members, stagger=None):
    shape = [n + 2 for n in dec.local_shape(ranks[0])]
    if stagger is not None:
        shape[stagger] += 1
    return rng.standard_normal((len(ranks), members, *shape))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=60, deadline=None)
@given(dec=decompositions(), members=st.sampled_from([1, 3]), seed=st.integers(0, 2**31 - 1))
def test_the_state_fill_of_a_group_is_its_ranks_fills(dec, members, seed):
    rng = np.random.default_rng(seed)
    for ranks in rank_groups(dec):
        blocks = {name: random_block(rng, dec, ranks, members, STAGGER_AXES[name])
                  for name in ALL_FIELDS}
        classes = BoundaryClasses.of(dec, ranks)
        profiles = BoundaryProfiles.capture(blocks, classes)
        inner = [(row_of(blocks["rho"], row)[..., 1, :, :].copy(),
                  row_of(blocks["temp"], row)[..., 1, :, :].copy()) for row in range(len(ranks))]
        for block in blocks.values():  # the interior moves on after the capture
            block *= 1.5
        want = {name: block.copy() for name, block in blocks.items()}
        for row, r in enumerate(ranks):
            reference_state({name: row_of(b, row) for name, b in want.items()}, dec, r, *inner[row])
        apply_boundaries(blocks, classes, profiles)
        for name in ALL_FIELDS:
            assert bits(blocks[name]) == bits(want[name]), name
        owners = [r for r in ranks if _owns(dec, r, 0, -1)]
        if not owners:
            assert profiles == (None, None)
        else:  # stacked only for the rows that own the inner boundary
            assert profiles.rho_inner.shape[0] == len(owners)


@settings(max_examples=60, deadline=None)
@given(dec=decompositions(), members=st.sampled_from([1, 3]), anti=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_the_centred_fill_of_a_group_is_its_ranks_fills(dec, members, anti, seed):
    rng = np.random.default_rng(seed)
    for ranks in rank_groups(dec):
        block = random_block(rng, dec, ranks, members)
        want = block.copy()
        for row, r in enumerate(ranks):
            reference_centered(row_of(want, row), dec, r, antisymmetric_theta=anti)
        apply_centered_boundary(block, BoundaryClasses.of(dec, ranks), antisymmetric_theta=anti)
        assert bits(block) == bits(want)


def test_the_classes_of_a_2_2_2_group_are_rows_of_one_block():
    """Eight equal ranks are one group; each face is owned by half of them."""
    dec = Decomposition3D((8, 8, 8), 8, dims=(2, 2, 2))
    (ranks,) = rank_groups(dec)
    classes = BoundaryClasses.of(dec, ranks)
    owners = [[row for row, r in enumerate(ranks) if _owns(dec, r, axis, d)]
              for axis in (0, 1) for d in (-1, 1)]
    for prefix, rows in zip(classes, owners):
        (index,) = prefix
        assert np.arange(8)[index].tolist() == rows
    assert BoundaryClasses.of(dec, (0,)) == ((), None, (), None)
