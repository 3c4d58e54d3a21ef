"""Kernel specs, dependence analysis, fusion planning."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.dependence import depends
from repro.machine.cpu import EPYC_7742_NODE, CpuNodeModel
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import DeviceMemory
from repro.runtime.config import ArrayReductionStrategy, Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.fusion import FusionGroup, plan_fusion
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.util.units import GB, MiB


def k(name, reads=(), writes=(), **kw):
    return KernelSpec(name, reads=tuple(reads), writes=tuple(writes), **kw)


class TestKernelSpec:
    def test_needs_name(self):
        with pytest.raises(ValueError):
            KernelSpec("")

    def test_work_fraction_range(self):
        with pytest.raises(ValueError):
            KernelSpec("k", work_fraction=0.0)
        with pytest.raises(ValueError):
            KernelSpec("k", work_fraction=1.5)

    def test_arrays_deduplicated_ordered(self):
        spec = k("k", reads=("a", "b"), writes=("b", "c"))
        assert spec.arrays == ("a", "b", "c")

    def test_run_body(self):
        spec = KernelSpec("k", body=lambda: 42)
        assert spec.run_body() == 42

    def test_run_body_none(self):
        assert KernelSpec("k").run_body() is None


def after(b, a):
    """Whether kernel ``b`` must run after kernel ``a`` (RAW/WAR/WAW)."""
    return depends(a.reads, a.writes, b.reads, b.writes)


class TestDependence:
    def test_raw(self):
        a = k("w", writes=("x",))
        b = k("r", reads=("x",))
        assert after(b, a)

    def test_war(self):
        a = k("r", reads=("x",))
        b = k("w", writes=("x",))
        assert after(b, a)

    def test_waw(self):
        a = k("w1", writes=("x",))
        b = k("w2", writes=("x",))
        assert after(b, a)

    def test_independent(self):
        a = k("a", reads=("x",), writes=("y",))
        b = k("b", reads=("x",), writes=("z",))
        assert not after(b, a)
        assert not after(a, b)


class TestPlanFusion:
    def test_disabled_gives_singletons(self):
        specs = [k("a", writes=("x",)), k("b", writes=("y",))]
        groups = plan_fusion(specs, enabled=False)
        assert [g.size for g in groups] == [1, 1]

    def test_independent_loops_fuse(self):
        specs = [k("a", reads=("q",), writes=("x",)), k("b", reads=("q",), writes=("y",)),
                 k("c", reads=("q",), writes=("z",))]
        groups = plan_fusion(specs, enabled=True)
        assert [g.size for g in groups] == [3]
        assert groups[0].name == "a+2"

    def test_dependence_splits_group(self):
        specs = [k("a", writes=("x",)), k("b", reads=("x",), writes=("y",))]
        groups = plan_fusion(specs, enabled=True)
        assert [g.size for g in groups] == [1, 1]

    def test_dependence_on_any_group_member_splits(self):
        specs = [
            k("a", writes=("x",)),
            k("b", writes=("y",)),
            k("c", reads=("x",), writes=("z",)),  # depends on a, two back
        ]
        groups = plan_fusion(specs, enabled=True)
        assert [g.size for g in groups] == [2, 1]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            FusionGroup(())

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=12))
    def test_fusion_preserves_order_and_count(self, arrays):
        """Property: fusion never reorders or drops kernels."""
        specs = [k(f"k{i}", writes=(a,)) for i, a in enumerate(arrays)]
        groups = plan_fusion(specs, enabled=True)
        flat = [sp.name for g in groups for sp in g.kernels]
        assert flat == [s.name for s in specs]

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                    min_size=1, max_size=10))
    def test_no_intra_group_dependences(self, pairs):
        """Property: within any fused group, no kernel depends on another."""
        specs = [k(f"k{i}", reads=(r,), writes=(w,)) for i, (r, w) in enumerate(pairs)]
        for g in plan_fusion(specs, enabled=True):
            for i, a in enumerate(g.kernels):
                for b in g.kernels[i + 1:]:
                    assert not after(b, a)


def runtime(config):
    if config.target == "cpu":
        rt = RankRuntime(config, cpu_model=CpuNodeModel(EPYC_7742_NODE))
    else:
        mode = DataMode.UNIFIED if config.unified_memory else DataMode.MANUAL
        env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
        rt = RankRuntime(config, env=env, gpu=GpuDevice(A100_40GB, 0))
    for name in "xy":
        rt.register_array(name, 1 * MiB)
    return rt


ACC = RuntimeConfig(name="acc", loop_backend=uniform_backend(Backend.ACC),
                    fusion=True, async_launch=True)
CONFIGS = [
    ACC,
    RuntimeConfig(name="dc", loop_backend=uniform_backend(Backend.DC2X),
                  array_reduction=ArrayReductionStrategy.FLIPPED_DC, inline_routines=True),
    RuntimeConfig(name="cpu", target="cpu"),
]


class TestFusionPlanner:
    """The region planner: ``RankRuntime``'s pending launches inside a region."""

    def test_region_protocol(self):
        rt = runtime(ACC)
        with rt.region():
            rt.loop(k("a", writes=("x",)))
            rt.loop(k("b", writes=("y",)))
            assert rt.stats.launches == 0
        assert (rt.stats.launches, rt.stats.fused_away) == (1, 1)
        with rt.region():  # closed: a region opens again
            pass

    def test_nested_region_rejected(self):
        for config in CONFIGS:
            rt = runtime(config)
            with rt.region():
                with pytest.raises(RuntimeError, match="nested"):
                    with rt.region():
                        pass

    def test_submit_outside_region_rejected(self):
        """Outside a region (and without cross-region fusion) nothing waits:
        a loop is charged when it is launched."""
        rt = runtime(ACC)
        rt.loop(k("a", writes=("x",)))
        assert rt.stats.launches == 1
