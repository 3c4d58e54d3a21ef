"""Overlapped halo exchange: begin/finish vs the synchronous engine.

The overlapped pair must reproduce synchronous payloads bit-for-bit (the
numerics move eagerly at ``begin``); only the cost accounting differs --
``begin`` charges the main clocks the posting overhead, ``finish`` the part
of the exchange the intervening compute failed to hide.
"""

import numpy as np
import pytest

from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT
from repro.machine.memory import DeviceMemory
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import HaloExchanger
from repro.mpi.transport import TransportKind, make_transport
from repro.runtime.clock import TimeCategory
from repro.runtime.config import Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.util.units import GB, MiB
from tests.mpi.test_decomp import slab

SHAPE = (6, 6, 8)


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
        # production-scale field so byte-proportional costs dominate the
        # per-launch overheads (as they do in the model)
        rt.register_array("f", 512 * MiB)
        out.append(rt)
    return out


def build(n, shape=SHAPE, **kw):
    dec = Decomposition3D(shape, n)
    ranks = make_ranks(n)
    tr = make_transport(TransportKind.CUDA_AWARE_P2P, interconnect=DELTA_INTERCONNECT)
    return dec, HaloExchanger(dec, tr, ranks, **kw)


def make_locals(dec, glob, *, stagger_axis=None):
    locs = []
    for r in dec.iter_ranks():
        s = dec.local_shape(r)
        pad = [g + 2 for g in s]
        if stagger_axis is not None:
            pad[stagger_axis] += 1
        a = np.zeros(tuple(pad))
        b = dec.bounds(r)
        if stagger_axis is None:
            a[1:-1, 1:-1, 1:-1] = glob[slab(dec, r)]
        else:
            sl = [slice(b[ax][0], b[ax][1] + (1 if ax == stagger_axis else 0))
                  for ax in range(3)]
            a[1:-1, 1:-1, 1 : s[2] + 2] = glob[tuple(sl)]
        locs.append(a)
    return locs


class TestPayloadIdentity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_begin_finish_matches_sync(self, n, seed):
        rng = np.random.default_rng(seed)
        glob = rng.random(SHAPE)
        dec, hx_sync = build(n)
        _, hx_async = build(n)
        ls = make_locals(dec, glob)
        la = make_locals(dec, glob)
        hx_sync.exchange("f", ls)
        pending = hx_async.exchange_begin("f", la)
        hx_async.exchange_finish(pending)
        for a, b in zip(ls, la):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_staggered_begin_finish_matches_sync(self, n):
        rng = np.random.default_rng(3)
        gface = rng.random((SHAPE[0], SHAPE[1], SHAPE[2] + 1))
        gface[:, :, -1] = gface[:, :, 0]
        dec, hx_sync = build(n)
        _, hx_async = build(n)
        ls = make_locals(dec, gface, stagger_axis=2)
        la = make_locals(dec, gface, stagger_axis=2)
        hx_sync.exchange("f", ls, stagger_axis=2)
        pending = hx_async.exchange_begin("f", la, stagger_axis=2)
        hx_async.exchange_finish(pending)
        for a, b in zip(ls, la):
            assert np.array_equal(a, b)

    def test_payload_complete_before_finish(self):
        """Ghosts are numerically filled the moment begin returns."""
        rng = np.random.default_rng(11)
        glob = rng.random(SHAPE)
        dec, hx_sync = build(2)
        _, hx_async = build(2)
        ls = make_locals(dec, glob)
        la = make_locals(dec, glob)
        hx_sync.exchange("f", ls)
        pending = hx_async.exchange_begin("f", la)
        for a, b in zip(ls, la):
            assert np.array_equal(a, b)
        hx_async.exchange_finish(pending)

    def test_overlap_false_degenerates_to_sync(self):
        rng = np.random.default_rng(5)
        glob = rng.random(SHAPE)
        dec, hx_sync = build(2)
        _, hx_deg = build(2)
        ls = make_locals(dec, glob)
        ld = make_locals(dec, glob)
        hx_sync.exchange("f", ls)
        pending = hx_deg.exchange_begin("f", ld, overlap=False)
        assert pending.comm_clocks is None  # completed at begin
        snapshot = [a.copy() for a in ld]
        hx_deg.exchange_finish(pending)  # no-op on a sync exchange
        for a, b, s in zip(ls, ld, snapshot):
            assert np.array_equal(a, b)
            assert np.array_equal(a, s)
        # same clock cost as the plain synchronous call, bit for bit
        for rs, rd in zip(hx_sync.ranks, hx_deg.ranks):
            rs.sync(), rd.sync()
            assert rs.clock.now == rd.clock.now


class TestFinishSemantics:
    def test_double_finish_raises(self):
        dec, hx = build(2)
        glob = np.random.default_rng(0).random(SHAPE)
        locs = make_locals(dec, glob)
        pending = hx.exchange_begin("f", locs)
        hx.exchange_finish(pending)
        with pytest.raises(ValueError, match="called twice"):
            hx.exchange_finish(pending)

    def test_double_finish_raises_on_sync_pending(self):
        dec, hx = build(2)
        glob = np.random.default_rng(0).random(SHAPE)
        locs = make_locals(dec, glob)
        pending = hx.exchange_begin("f", locs, overlap=False)
        hx.exchange_finish(pending)
        with pytest.raises(ValueError, match="called twice"):
            hx.exchange_finish(pending)

    def test_inflight_bookkeeping(self):
        dec, hx = build(2)
        glob = np.random.default_rng(1).random(SHAPE)
        locs = make_locals(dec, glob)
        assert hx.inflight == 0
        pending = hx.exchange_begin("f", locs)
        assert pending.messages > 0
        assert hx.inflight == pending.messages
        hx.exchange_finish(pending)
        assert hx.inflight == 0


class TestCostAccounting:
    #: Calibrated-scale pack/buffer costs (repro.perf.calibration) so the
    #: exchange has realistic weight next to the per-post launch overhead.
    COSTED = dict(pack_inefficiency=4.0, buffer_init_fraction=0.75)

    def _exchange_cost(self, n=2):
        """Mean per-rank wall of one synchronous exchange."""
        dec, hx = build(n, **self.COSTED)
        locs = make_locals(dec, np.random.default_rng(2).random(SHAPE))
        for rt in hx.ranks:
            rt.sync()
        t0 = [rt.clock.now for rt in hx.ranks]
        hx.exchange("f", locs)
        return sum(rt.clock.now - t for rt, t in zip(hx.ranks, t0)) / n

    def test_begin_charges_only_posting_overhead(self):
        sync_cost = self._exchange_cost()
        dec, hx = build(2, **self.COSTED)
        locs = make_locals(dec, np.random.default_rng(2).random(SHAPE))
        for rt in hx.ranks:
            rt.sync()
        t0 = [rt.clock.now for rt in hx.ranks]
        pending = hx.exchange_begin("f", locs)
        for rt in hx.ranks:
            rt.sync()
        begin_cost = max(rt.clock.now - t for rt, t in zip(hx.ranks, t0))
        # posting a handful of kernels is far cheaper than the exchange
        assert begin_cost < 0.25 * sync_cost
        hx.exchange_finish(pending)

    def test_finish_without_compute_pays_the_exchange(self):
        """With nothing to hide under, the main clock must reach the
        communication timeline (nothing was hidden)."""
        dec, hx = build(2)
        locs = make_locals(dec, np.random.default_rng(2).random(SHAPE))
        pending = hx.exchange_begin("f", locs)
        hx.exchange_finish(pending)
        for rt, comm in zip(hx.ranks, pending.comm_clocks):
            assert rt.clock.now >= comm.now

    def test_compute_hides_the_exchange(self):
        """Interior compute longer than the exchange absorbs its cost:
        finish adds only the completion latency."""
        dec, hx = build(2)
        locs = make_locals(dec, np.random.default_rng(2).random(SHAPE))
        pending = hx.exchange_begin("f", locs)
        compute = 0.05  # far longer than a test-scale exchange
        for rt in hx.ranks:
            rt.sync()
            rt.clock.advance(compute, TimeCategory.COMPUTE, "interior")
        t_pre = [rt.clock.now for rt in hx.ranks]
        mpi_pre = [rt.clock.mpi_time for rt in hx.ranks]
        hx.exchange_finish(pending)
        for rt, t, m in zip(hx.ranks, t_pre, mpi_pre):
            assert rt.clock.now - t <= 2 * rt.queue.completion_latency
            assert rt.clock.mpi_time == m  # fully hidden: zero MPI charged
