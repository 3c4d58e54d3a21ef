"""OpenACC and DC launch semantics on the one GPU engine, and their
relative cost ordering. The engine only charges; bodies are the
dispatcher's (``tests/runtime/test_dispatcher.py``)."""

from functools import partial

import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import DeviceMemory
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import ArrayReductionStrategy
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.doconcurrent import UnsupportedLoopError, check_supported
from repro.runtime.engine import Engine
from repro.runtime.fusion import plan_fusion
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.stream import AsyncQueue
from repro.util.units import GB, MiB


def make_env(mode=DataMode.MANUAL):
    return DataEnvironment(
        mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16
    )


def make_acc(env=None, *, async_launch=True, clock=None):
    env = env or make_env()
    return Engine(
        clock=clock or SimClock(),
        env=env,
        machine=GpuDevice(A100_40GB, 0),
        cost=KernelCostModel(),
        queue=AsyncQueue(),
        async_launch=async_launch,
    )


def make_dc(env=None, *, dc2x=False, inlined=False, clock=None,
            strategy=ArrayReductionStrategy.DC_ATOMIC):
    env = env or make_env()
    return Engine(
        clock=clock or SimClock(),
        env=env,
        machine=GpuDevice(A100_40GB, 0),
        cost=KernelCostModel(),
        queue=AsyncQueue(),
        async_launch=False,
        array_reduction=strategy,
        admit=partial(check_supported, dc2x_reduce=dc2x,
                      routines_inlined=inlined, array_reduction=strategy),
    )


def charge(engine, spec):
    """``spec`` launched on its own: priced, then charged."""
    engine.charge(engine.price(spec), spec.category)


def charge_each(dc, specs):
    """A fissioned sequence (what was one OpenACC region)."""
    for spec in specs:
        charge(dc, spec)


def loops(env, n, nbytes=100 * MiB):
    specs = []
    for i in range(n):
        name = f"arr{i}"
        env.register(name, nbytes)
        if env.mode is DataMode.MANUAL:
            env.enter_data(name)
        specs.append(KernelSpec(f"k{i}", reads=(), writes=(name,)))
    return specs


class TestFissionVsFusion:
    def test_dc_slower_than_fused_acc_for_same_work(self):
        """The paper's kernel-fission cost: many small DC kernels lose to one
        fused OpenACC kernel."""
        env_a, env_d = make_env(), make_env()
        specs_a = loops(env_a, 8, nbytes=1 * MiB)
        specs_d = loops(env_d, 8, nbytes=1 * MiB)
        acc = make_acc(env_a)
        dc = make_dc(env_d)
        acc.charge_region(plan_fusion(specs_a, enabled=True))
        charge_each(dc, specs_d)
        assert acc.clock.now < dc.clock.now
        assert acc.stats.launches == 1
        assert dc.stats.launches == 8
        assert acc.stats.fused_away == 7

    def test_compute_time_identical_bodies(self):
        """Fusion changes launch gaps only, not device busy time."""
        env_a, env_d = make_env(), make_env()
        specs_a = loops(env_a, 4)
        specs_d = loops(env_d, 4)
        acc = make_acc(env_a)
        dc = make_dc(env_d)
        acc.charge_region(plan_fusion(specs_a, enabled=True))
        charge_each(dc, specs_d)
        assert acc.clock.by_category[TimeCategory.COMPUTE] == pytest.approx(
            dc.clock.by_category[TimeCategory.COMPUTE]
        )

    def test_async_region_beats_sync_region(self):
        env_a, env_b = make_env(), make_env()
        specs_a = loops(env_a, 6)
        specs_b = loops(env_b, 6)
        # force separate launches with fusion disabled to isolate async
        fast = make_acc(env_a, async_launch=True)
        slow = make_acc(env_b, async_launch=False)
        fast.charge_region(plan_fusion(specs_a, enabled=False))
        slow.charge_region(plan_fusion(specs_b, enabled=False))
        assert fast.clock.now < slow.clock.now


class TestDcRestrictions:
    def test_scalar_reduction_needs_dc2x(self):
        env = make_env()
        (spec,) = loops(env, 1)
        bad = KernelSpec("red", category=LoopCategory.SCALAR_REDUCTION,
                         reads=spec.writes)
        with pytest.raises(UnsupportedLoopError, match="202X"):
            charge(make_dc(env), bad)

    def test_scalar_reduction_ok_with_dc2x(self):
        env = make_env()
        (spec,) = loops(env, 1)
        red = KernelSpec("red", category=LoopCategory.SCALAR_REDUCTION,
                         reads=spec.writes)
        charge(make_dc(env, dc2x=True), red)

    def test_routine_caller_needs_inlining(self):
        env = make_env()
        (spec,) = loops(env, 1)
        call = KernelSpec("caller", category=LoopCategory.ROUTINE_CALLER,
                          reads=spec.writes)
        with pytest.raises(UnsupportedLoopError, match="Minline"):
            charge(make_dc(env), call)
        charge(make_dc(env, inlined=True), call)

    def test_kernels_region_rejected(self):
        env = make_env()
        (spec,) = loops(env, 1)
        kr = KernelSpec("minval", category=LoopCategory.KERNELS_REGION,
                        reads=spec.writes)
        with pytest.raises(UnsupportedLoopError, match="no DC equivalent"):
            charge(make_dc(env, dc2x=True), kr)


class TestReductionStrategies:
    def _array_red(self, env):
        (spec,) = loops(env, 1)
        return KernelSpec("ared", category=LoopCategory.ARRAY_REDUCTION,
                          reads=spec.writes)

    def test_atomic_slower_than_flipped(self):
        env_a, env_f = make_env(), make_env()
        ra, rf = self._array_red(env_a), self._array_red(env_f)
        atomic = make_dc(env_a, dc2x=True, strategy=ArrayReductionStrategy.DC_ATOMIC)
        flipped = make_dc(env_f, dc2x=True, strategy=ArrayReductionStrategy.FLIPPED_DC)
        charge(atomic, ra)
        charge(flipped, rf)
        assert flipped.clock.now < atomic.clock.now

    def test_body_runs_and_returns(self):
        rt = RankRuntime(runtime_config_for(CodeVersion.D2XU),
                         env=make_env(DataMode.UNIFIED), gpu=GpuDevice(A100_40GB, 0))
        rt.register_array("arr0", 100 * MiB)
        assert rt.loop(KernelSpec("k", reads=("arr0",), body=lambda: 7)) == 7


class TestUnifiedMemoryEffects:
    def test_um_adds_fault_time_on_first_touch(self):
        env = make_env(DataMode.UNIFIED)
        specs = loops(env, 1)
        dc = make_dc(env)
        charge(dc, specs[0])
        assert dc.clock.by_category[TimeCategory.UM_FAULT] > 0

    def test_um_launch_gap_larger(self):
        env_m, env_u = make_env(), make_env(DataMode.UNIFIED)
        (sm,) = loops(env_m, 1)
        (su,) = loops(env_u, 1)
        m = make_dc(env_m)
        u = make_dc(env_u)
        charge(m, sm)
        charge(u, su)
        assert (
            u.clock.by_category[TimeCategory.LAUNCH]
            > m.clock.by_category[TimeCategory.LAUNCH]
        )

    def test_um_body_slower(self):
        env_m, env_u = make_env(), make_env(DataMode.UNIFIED)
        (sm,) = loops(env_m, 1)
        (su,) = loops(env_u, 1)
        m, u = make_dc(env_m), make_dc(env_u)
        charge(m, sm)
        charge(u, su)
        charge(u, su)  # steady state: no faults second time
        assert (
            u.clock.by_category[TimeCategory.COMPUTE] / 2
            > m.clock.by_category[TimeCategory.COMPUTE]
        )


class TestMpiPackTagging:
    def test_pack_kernels_counted_as_mpi(self):
        env = make_env()
        (spec,) = loops(env, 1)
        pack = KernelSpec("pack", reads=spec.writes, tags=frozenset({"mpi_pack"}))
        acc = make_acc(env)
        charge(acc, pack)
        assert acc.clock.mpi_time > 0
        assert acc.clock.by_category[TimeCategory.MPI_PACK] > 0
