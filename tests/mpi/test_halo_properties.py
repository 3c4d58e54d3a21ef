"""Property-based halo-exchange tests (hypothesis).

The exchanger must fill ghosts so that every rank's ghosted array is an
exact window onto the (periodically extended) global array -- for any
grid shape, rank count, random field, centered or staggered.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT
from repro.machine.memory import DeviceMemory
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import HaloExchanger
from repro.mpi.transport import TransportKind, make_transport
from repro.runtime.config import Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.util.units import GB, MiB
from tests.mpi.test_decomp import slab


def make_ranks(n):
    cfg = RuntimeConfig(
        name="t", loop_backend=uniform_backend(Backend.ACC),
        fusion=True, async_launch=True,
    )
    out = []
    for r in range(n):
        env = DataEnvironment(
            DataMode.MANUAL,
            device_memory=DeviceMemory(40 * GB),
            host_link=DELTA_INTERCONNECT.host,
        )
        rt = RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, r % 8), num_ranks=n)
        rt.register_array("f", 4 * MiB)
        out.append(rt)
    return out


def build(shape, n):
    dec = Decomposition3D(shape, n)
    ranks = make_ranks(n)
    tr = make_transport(TransportKind.CUDA_AWARE_P2P, interconnect=DELTA_INTERCONNECT)
    return dec, HaloExchanger(dec, tr, ranks)


def expected_ghosted(glob, bounds, g=1):
    """Reference ghosted block: slice the globally-extended array."""
    # extend phi periodically; pad r/theta with NaN (BC territory)
    ext = np.pad(
        glob.astype(float),
        ((g, g), (g, g), (0, 0)),
        constant_values=np.nan,
    )
    ext = np.concatenate([ext[:, :, -g:], ext, ext[:, :, :g]], axis=2)
    (r0, r1), (t0, t1), (p0, p1) = bounds
    return ext[r0 : r1 + 2 * g, t0 : t1 + 2 * g, p0 : p1 + 2 * g]


@st.composite
def grid_and_ranks(draw):
    shape = (
        draw(st.integers(4, 10)),
        draw(st.integers(4, 8)),
        draw(st.integers(4, 12)),
    )
    n = draw(st.sampled_from([1, 2, 4]))
    # ensure every axis can host its rank-dim
    return shape, n


class TestExchangeProperty:
    @settings(max_examples=15, deadline=None)
    @given(grid_and_ranks(), st.integers(0, 2**31 - 1))
    def test_ghosts_match_global_window(self, cfg, seed):
        shape, n = cfg
        try:
            dec, hx = build(shape, n)
        except ValueError:
            return  # undecomposable shape/rank combination
        rng = np.random.default_rng(seed)
        glob = rng.random(shape)
        locs = []
        for r in dec.iter_ranks():
            s = dec.local_shape(r)
            a = np.full((s[0] + 2, s[1] + 2, s[2] + 2), np.nan)
            a[1:-1, 1:-1, 1:-1] = glob[slab(dec, r)]
            locs.append(a)
        hx.exchange("f", locs)
        for r in dec.iter_ranks():
            ref = expected_ghosted(glob, dec.bounds(r))
            got = locs[r]
            mask = ~np.isnan(ref)
            assert np.allclose(got[mask], ref[mask]), r
            # non-periodic global boundaries stay untouched (NaN)
            assert np.isnan(got[~mask]).all()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 4]))
    def test_staggered_exchange_consistency(self, seed, n):
        """Duplicated periodic faces of a phi-staggered array must agree
        after exchange-driven updates on both copies."""
        shape = (6, 4, 8)
        try:
            dec, hx = build(shape, n)
        except ValueError:
            return
        rng = np.random.default_rng(seed)
        # build a global face field (nphi+1 with wrap equality)
        gface = rng.random((shape[0], shape[1], shape[2] + 1))
        gface[:, :, -1] = gface[:, :, 0]
        locs = []
        for r in dec.iter_ranks():
            s = dec.local_shape(r)
            a = np.full((s[0] + 2, s[1] + 2, s[2] + 3), np.nan)
            b = dec.bounds(r)
            a[1:-1, 1:-1, 1 : s[2] + 2] = gface[
                b[0][0] : b[0][1], b[1][0] : b[1][1], b[2][0] : b[2][1] + 1
            ]
            locs.append(a)
        hx.exchange("f", locs, stagger_axis=2)
        for r in dec.iter_ranks():
            a = locs[r]
            s = dec.local_shape(r)
            b = dec.bounds(r)
            # ghost faces hold strictly-beyond-boundary global faces
            lo_face = (b[2][0] - 1) % shape[2]
            hi_face = (b[2][1] + 1) % shape[2]
            assert np.allclose(a[1:-1, 1:-1, 0], gface[b[0][0]:b[0][1], b[1][0]:b[1][1], lo_face])
            assert np.allclose(a[1:-1, 1:-1, s[2] + 2], gface[b[0][0]:b[0][1], b[1][0]:b[1][1], hi_face])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_exchange_idempotent(self, seed):
        """Exchanging twice must not change anything the second time."""
        dec, hx = build((6, 6, 8), 2)
        rng = np.random.default_rng(seed)
        glob = rng.random((6, 6, 8))
        locs = []
        for r in dec.iter_ranks():
            s = dec.local_shape(r)
            a = np.zeros((s[0] + 2, s[1] + 2, s[2] + 2))
            a[1:-1, 1:-1, 1:-1] = glob[slab(dec, r)]
            locs.append(a)
        hx.exchange("f", locs)
        snapshot = [a.copy() for a in locs]
        hx.exchange("f", locs)
        for a, b in zip(locs, snapshot):
            assert np.array_equal(a, b)
