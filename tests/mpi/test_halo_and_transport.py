"""Halo exchange correctness and transport cost ordering."""

import numpy as np
import pytest

from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT, PCIE4_X16, SLINGSHOT
from repro.machine.memory import DeviceMemory
from repro.mpi.collectives import allreduce_min, allreduce_sum, barrier
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import HaloExchanger, HaloSpec
from repro.mpi.transport import TransportKind, make_transport
from repro.runtime.config import Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.util.units import GB, MiB
from tests.mpi.test_decomp import slab


def make_ranks(n, *, unified=False):
    cfg = RuntimeConfig(
        name="t",
        loop_backend=uniform_backend(Backend.ACC),
        fusion=True,
        async_launch=True,
        unified_memory=unified,
    )
    ranks = []
    for r in range(n):
        mode = DataMode.UNIFIED if unified else DataMode.MANUAL
        env = DataEnvironment(
            mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16
        )
        rt = RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, r), num_ranks=n)
        rt.register_array("f", 64 * MiB)
        ranks.append(rt)
    return ranks


def scatter(glob, dec, g):
    locs = []
    for r in dec.iter_ranks():
        sh = dec.local_shape(r)
        a = np.full((sh[0] + 2 * g, sh[1] + 2 * g, sh[2] + 2 * g), np.nan)
        a[g:-g, g:-g, g:-g] = glob[slab(dec, r)]
        locs.append(a)
    return locs


def exchanger(dec, ranks, kind=TransportKind.CUDA_AWARE_P2P):
    tr = make_transport(kind, interconnect=DELTA_INTERCONNECT, fabric=SLINGSHOT)
    return HaloExchanger(dec, tr, ranks)


class TestExchangeCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_ghosts_match_global_field(self, n):
        rng = np.random.default_rng(0)
        glob = rng.random((8, 8, 16))
        dec = Decomposition3D((8, 8, 16), n)
        ranks = make_ranks(n)
        hx = exchanger(dec, ranks)
        locs = scatter(glob, dec, 1)
        hx.exchange("f", locs)
        for r in dec.iter_ranks():
            a = locs[r]
            b = dec.bounds(r)
            # interior untouched
            assert np.array_equal(a[1:-1, 1:-1, 1:-1], glob[slab(dec, r)])
            # phi ghosts (periodic axis) must match wrapped global values
            lo = (b[2][0] - 1) % 16
            hi = b[2][1] % 16
            assert np.allclose(a[1:-1, 1:-1, 0], glob[b[0][0]:b[0][1], b[1][0]:b[1][1], lo])
            assert np.allclose(a[1:-1, 1:-1, -1], glob[b[0][0]:b[0][1], b[1][0]:b[1][1], hi])

    def test_interior_r_theta_ghosts(self):
        glob = np.arange(8 * 8 * 8, dtype=float).reshape(8, 8, 8)
        dec = Decomposition3D((8, 8, 8), 8, dims=(2, 2, 2))
        ranks = make_ranks(8)
        hx = exchanger(dec, ranks)
        locs = scatter(glob, dec, 1)
        hx.exchange("f", locs)
        # rank 0's high-r ghost plane equals rank at coords (1,0,0) first plane
        a = locs[0]
        assert np.allclose(a[-1, 1:-1, 1:-1], glob[4, 0:4, 0:4])

    def test_depth_two(self):
        glob = np.arange(12 * 6 * 12, dtype=float).reshape(12, 6, 12)
        dec = Decomposition3D((12, 6, 12), 2, dims=(1, 1, 2))
        ranks = make_ranks(2)
        hx = exchanger(dec, ranks)
        locs = scatter(glob, dec, 2)
        hx.exchange("f", locs, HaloSpec(depth=2))
        a = locs[0]
        assert np.allclose(a[2:-2, 2:-2, 0], glob[:, :, -2])
        assert np.allclose(a[2:-2, 2:-2, 1], glob[:, :, -1])

    def test_depth_two_is_priced_at_depth_two_after_a_depth_one_exchange(self):
        """Staging buffers are per depth: the bytes of a deeper exchange do
        not depend on which depth the field was first exchanged at."""
        dec = Decomposition3D((12, 6, 12), 2, dims=(1, 1, 2))

        def depth_two_bytes(*, depth_one_first):
            hx = exchanger(dec, make_ranks(2))
            if depth_one_first:
                hx.exchange("f", scatter(np.zeros((12, 6, 12)), dec, 1))
            before = hx.bytes_sent
            hx.exchange("f", scatter(np.zeros((12, 6, 12)), dec, 2), HaloSpec(depth=2))
            return hx.bytes_sent - before

        assert depth_two_bytes(depth_one_first=False) == 4608
        assert depth_two_bytes(depth_one_first=True) == 4608

    def test_outer_r_boundary_ghosts_untouched(self):
        glob = np.ones((8, 8, 8))
        dec = Decomposition3D((8, 8, 8), 1)
        ranks = make_ranks(1)
        hx = exchanger(dec, ranks)
        locs = scatter(glob, dec, 1)
        hx.exchange("f", locs)
        # r is non-periodic: its ghosts stay NaN for the BC layer to fill
        assert np.isnan(locs[0][0, 1, 1])
        assert np.isnan(locs[0][-1, 1, 1])

    def test_too_small_extent_rejected(self):
        dec = Decomposition3D((8, 8, 8), 1)
        ranks = make_ranks(1)
        hx = exchanger(dec, ranks)
        bad = [np.zeros((2, 10, 10))]
        with pytest.raises(ValueError, match="too small"):
            hx.exchange("f", bad)

    def test_rank_count_checked(self):
        dec = Decomposition3D((8, 8, 8), 2)
        ranks = make_ranks(1)
        with pytest.raises(ValueError):
            exchanger(dec, ranks)

    @pytest.mark.parametrize("groups", [[(0, 2)], [(0,), (0, 1)], [(1,)], [(-1, 0, 1)]])
    def test_rank_groups_must_hold_every_rank_once(self, groups):
        """Checked before any slot is filled: a rank out of range is the
        same refusal as a rank left out, not an ``IndexError``."""
        hx = exchanger(Decomposition3D((8, 8, 16), 2), make_ranks(2))
        with pytest.raises(ValueError, match="every rank once"):
            hx.set_groups(groups)
        hx.set_groups([(1,), (0,)])
        assert hx.slots(2) == [(1, 0), (0, 0)]

    @pytest.mark.parametrize("spec, why", [
        (dict(axes=(2, 2)), "axes"),  # exchanged axis 2 twice: 8 messages, twice the cost
        (dict(axes=(0, 1, 0)), "axes"),
        (dict(depth=1.5), "halo depth"),  # priced at fractional bytes
        (dict(depth=True), "halo depth"),  # ran as depth 1
        (dict(axes=(True,)), "axes"),  # ran as axis 1
        (dict(axes=[1, 1]), "axes"),
    ])
    def test_repeated_axes_and_a_fractional_depth_are_refused(self, spec, why):
        with pytest.raises(ValueError, match=why):
            HaloSpec(**spec)

    def test_numpy_integers_and_list_axes_are_stored_as_plain_ints(self):
        spec = HaloSpec(depth=np.int64(2), axes=[np.int64(2), 0])
        assert (spec.depth, spec.axes) == (2, (2, 0))
        assert type(spec.depth) is int and all(type(a) is int for a in spec.axes)
        assert spec == HaloSpec(depth=2, axes=(2, 0))
        assert hash(spec) == hash(HaloSpec(depth=2, axes=(2, 0)))

    def test_an_exchange_with_list_axes(self):
        """``axes=[2]`` used to be accepted and then fail every exchange
        with an unhashable plan key."""
        rng = np.random.default_rng(1)
        glob = rng.random((8, 8, 16))
        dec = Decomposition3D((8, 8, 16), 2)
        listed, tupled = scatter(glob, dec, 1), scatter(glob, dec, 1)
        exchanger(dec, make_ranks(2)).exchange("f", listed, HaloSpec(axes=[2]))
        exchanger(dec, make_ranks(2)).exchange("f", tupled, HaloSpec(axes=(2,)))
        for a, b in zip(listed, tupled):
            assert np.array_equal(a, b, equal_nan=True)
        assert not np.isnan(listed[0][1:-1, 1:-1, 0]).any()  # the phi ghosts moved

    @pytest.mark.parametrize("depth", [0, 1.5, True])
    def test_ensure_buffers_refuses_what_halospec_refuses(self, depth):
        ranks = make_ranks(2)
        hx = exchanger(Decomposition3D((8, 8, 16), 2), ranks)
        with pytest.raises(ValueError, match="halo depth"):
            hx.ensure_buffers(("f",), depth)
        assert [rt.env.names() for rt in ranks] == [("f",), ("f",)]


class TestTransportCosts:
    def _run(self, kind, *, unified, n=2):
        dec = Decomposition3D((8, 8, 16), n)
        ranks = make_ranks(n, unified=unified)
        hx = exchanger(dec, ranks, kind)
        locs = scatter(np.zeros((8, 8, 16)), dec, 1)
        hx.exchange("f", locs)
        return ranks

    def test_um_transport_much_slower_than_p2p(self):
        """Fig. 3/4's core claim: UM MPI time >> CUDA-aware MPI time."""
        p2p = self._run(TransportKind.CUDA_AWARE_P2P, unified=False)
        um = self._run(TransportKind.UM_STAGED, unified=True)
        t_p2p = max(rt.clock.mpi_time for rt in p2p)
        t_um = max(rt.clock.mpi_time for rt in um)
        assert t_um > 2 * t_p2p

    def test_single_rank_still_has_mpi_time(self):
        """Periodic phi wrap: even 1 rank packs/copies/unpacks (Fig. 3)."""
        ranks = self._run(TransportKind.CUDA_AWARE_P2P, unified=False, n=1)
        assert ranks[0].clock.mpi_time > 0

    def test_transport_mode_mismatch_rejected(self):
        dec = Decomposition3D((8, 8, 16), 2)
        ranks = make_ranks(2, unified=True)
        hx = exchanger(dec, ranks, TransportKind.CUDA_AWARE_P2P)
        locs = scatter(np.zeros((8, 8, 16)), dec, 1)
        with pytest.raises(ValueError, match="manual"):
            hx.exchange("f", locs)

    def test_message_counters(self):
        dec = Decomposition3D((8, 8, 16), 2)
        ranks = make_ranks(2)
        hx = exchanger(dec, ranks)
        locs = scatter(np.zeros((8, 8, 16)), dec, 1)
        hx.exchange("f", locs)
        assert hx.messages > 0 and hx.bytes_sent > 0

    def test_make_transport_validation(self):
        with pytest.raises(ValueError):
            make_transport(TransportKind.CUDA_AWARE_P2P)
        with pytest.raises(ValueError):
            make_transport(TransportKind.CPU_FABRIC)


class TestCollectives:
    def test_allreduce_sum_value(self):
        ranks = make_ranks(4)
        out = allreduce_sum(ranks, [1.0, 2.0, 3.0, 4.0], SLINGSHOT)
        assert out == 10.0

    def test_allreduce_min_value(self):
        ranks = make_ranks(3)
        assert allreduce_min(ranks, [3.0, 1.0, 2.0], SLINGSHOT) == 1.0

    def test_cost_charged_to_all(self):
        ranks = make_ranks(4)
        allreduce_sum(ranks, [0.0] * 4, SLINGSHOT)
        for rt in ranks:
            assert rt.clock.mpi_time > 0

    def test_barrier_synchronizes(self):
        ranks = make_ranks(2)
        from repro.runtime.clock import TimeCategory

        ranks[0].clock.advance(1.0, TimeCategory.COMPUTE)
        barrier(ranks)
        assert ranks[1].clock.now == pytest.approx(ranks[0].clock.now)
        assert ranks[1].clock.by_category[TimeCategory.MPI_WAIT] > 0

    def test_value_count_checked(self):
        ranks = make_ranks(2)
        with pytest.raises(ValueError):
            allreduce_sum(ranks, [1.0], SLINGSHOT)

    def test_um_collective_costs_more(self):
        manual = make_ranks(4)
        um = make_ranks(4, unified=True)
        allreduce_sum(manual, [0.0] * 4, SLINGSHOT)
        allreduce_sum(um, [0.0] * 4, SLINGSHOT, unified_memory=True)
        assert um[0].clock.mpi_time > manual[0].clock.mpi_time
