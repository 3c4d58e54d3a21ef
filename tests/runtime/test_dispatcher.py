"""RankRuntime routing per code-version config."""

import numpy as np
import pytest

from repro.machine.cpu import EPYC_7742_NODE, CpuNodeModel
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import DeviceMemory
from repro.runtime.clock import TimeCategory
from repro.runtime.config import (
    ArrayReductionStrategy,
    Backend,
    RuntimeConfig,
    uniform_backend,
)
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.util.units import GB, MiB


def gpu_runtime(config):
    mode = DataMode.UNIFIED if config.unified_memory else DataMode.MANUAL
    env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
    return RankRuntime(config, env=env, gpu=GpuDevice(A100_40GB, 0))


def acc_config(**kw):
    return RuntimeConfig(
        name="acc", loop_backend=uniform_backend(Backend.ACC),
        fusion=True, async_launch=True, **kw
    )


def dc_config(**kw):
    return RuntimeConfig(
        name="dc", loop_backend=uniform_backend(Backend.DC2X),
        array_reduction=ArrayReductionStrategy.FLIPPED_DC,
        inline_routines=True, **kw
    )


class TestConfigValidation:
    def test_gpu_needs_backends(self):
        with pytest.raises(ValueError):
            RuntimeConfig(name="bad")

    def test_cpu_rejects_um(self):
        with pytest.raises(ValueError):
            RuntimeConfig(name="bad", target="cpu", unified_memory=True)

    def test_unmapped_category_raises(self):
        cfg = RuntimeConfig(
            name="partial", loop_backend={LoopCategory.PLAIN: Backend.ACC}
        )
        with pytest.raises(ValueError, match="does not map"):
            cfg.backend_for(LoopCategory.SCALAR_REDUCTION)

    def test_with_unified_memory(self):
        cfg = acc_config().with_unified_memory()
        assert cfg.unified_memory
        assert cfg.name.endswith("+UM")

    def test_uses_openacc(self):
        assert acc_config().uses_openacc
        assert not dc_config().uses_openacc


class TestGpuDispatch:
    def test_bodies_execute_eagerly_inside_region(self):
        """Numerics must not be deferred by fusion buffering."""
        rt = gpu_runtime(acc_config())
        rt.register_array("a", 1 * MiB)
        data = np.zeros(4)

        def body():
            data[:] = 1.0

        with rt.region():
            rt.loop(KernelSpec("k", writes=("a",), body=body))
            assert np.all(data == 1.0)  # visible before region closes

    def test_region_fuses_for_acc(self):
        rt = gpu_runtime(acc_config())
        for i in range(4):
            rt.register_array(f"a{i}", 1 * MiB)
        with rt.region():
            for i in range(4):
                rt.loop(KernelSpec(f"k{i}", writes=(f"a{i}",)))
        assert rt.stats.launches == 1
        assert rt.stats.fused_away == 3

    def test_region_transparent_for_dc(self):
        rt = gpu_runtime(dc_config())
        for i in range(4):
            rt.register_array(f"a{i}", 1 * MiB)
        with rt.region():
            for i in range(4):
                rt.loop(KernelSpec(f"k{i}", writes=(f"a{i}",)))
        assert rt.stats.launches == 4

    def test_mixed_backend_code2_style(self):
        """Code 2: plain loops DC, reductions stay OpenACC."""
        backends = uniform_backend(Backend.DC)
        backends[LoopCategory.SCALAR_REDUCTION] = Backend.ACC
        backends[LoopCategory.ARRAY_REDUCTION] = Backend.ACC
        cfg = RuntimeConfig(name="ad", loop_backend=backends)
        rt = gpu_runtime(cfg)
        rt.register_array("a", 1 * MiB)
        rt.loop(KernelSpec("plain", writes=("a",)))
        out = rt.scalar_reduction(KernelSpec("red", reads=("a",), body=lambda: 5.0))
        assert out == 5.0
        assert rt.stats.launches == 2

    def test_kernels_region_expanded_under_dc(self):
        rt = gpu_runtime(dc_config())
        rt.register_array("a", 1 * MiB)
        rt.kernels_region(KernelSpec("minval", reads=("a",), body=lambda: 1.0))
        assert rt.stats.launches == 1

    def test_reduction_value_returned(self):
        rt = gpu_runtime(acc_config())
        rt.register_array("a", 1 * MiB)
        assert rt.scalar_reduction(
            KernelSpec("r", reads=("a",), body=lambda: 3.14)
        ) == 3.14

    def test_register_array_charges_h2d_manual(self):
        rt = gpu_runtime(acc_config())
        rt.register_array("a", 100 * MiB)
        assert rt.clock.by_category[TimeCategory.H2D] > 0

    def test_register_array_free_under_um(self):
        rt = gpu_runtime(acc_config(unified_memory=True))
        rt.register_array("a", 100 * MiB)
        assert rt.clock.now == 0.0

    def test_working_set_tracked(self):
        rt = gpu_runtime(acc_config())
        rt.register_array("a", 100 * MiB)
        rt.register_array("b", 100 * MiB)
        assert rt.working_set_bytes == 200 * MiB

    def test_env_mode_mismatch_rejected(self):
        cfg = acc_config()
        env = DataEnvironment(
            DataMode.UNIFIED, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16
        )
        with pytest.raises(ValueError, match="expects manual"):
            RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, 0))


class TestCpuDispatch:
    def make(self, num_ranks=1):
        cfg = RuntimeConfig(name="cpu", target="cpu")
        return RankRuntime(
            cfg, cpu_model=CpuNodeModel(EPYC_7742_NODE), num_ranks=num_ranks
        )

    def test_no_launch_overhead(self):
        rt = self.make()
        rt.register_array("a", 100 * MiB)
        rt.loop(KernelSpec("k", writes=("a",)))
        assert TimeCategory.LAUNCH not in rt.clock.by_category

    def test_cost_scales_with_bytes(self):
        rt1, rt2 = self.make(), self.make()
        rt1.register_array("a", 100 * MiB)
        rt2.register_array("a", 200 * MiB)
        rt1.loop(KernelSpec("k", writes=("a",)))
        rt2.loop(KernelSpec("k", writes=("a",)))
        assert rt2.clock.now == pytest.approx(2 * rt1.clock.now)

    def test_multi_node_locality_boost(self):
        rt1, rt8 = self.make(1), self.make(8)
        for rt in (rt1, rt8):
            rt.register_array("a", 100 * MiB)
            rt.loop(KernelSpec("k", writes=("a",)))
        assert rt8.clock.now < rt1.clock.now  # same local bytes, boosted

    def test_cpu_needs_model(self):
        with pytest.raises(ValueError):
            RankRuntime(RuntimeConfig(name="cpu", target="cpu"))


def version_runtime(version):
    from repro.codes import CodeVersion, runtime_config_for

    config = runtime_config_for(CodeVersion[version])
    if config.target == "cpu":
        return RankRuntime(config, cpu_model=CpuNodeModel(EPYC_7742_NODE))
    return gpu_runtime(config)


VERSIONS = ["CPU", "A", "AD", "ADU", "AD2XU", "D2XU", "D2XAD"]


class TestRegionRules:
    """OpenACC allows no executable data directive inside a compute
    construct and no nested parallel region; every code version refuses
    both, whatever backend its loops run on."""

    @pytest.mark.parametrize("directive", ["update_host", "update_device", "host_access"])
    @pytest.mark.parametrize("version", VERSIONS)
    def test_data_directive_inside_a_region_is_refused(self, version, directive):
        rt = version_runtime(version)
        rt.register_array("y", 1 * MiB)
        with pytest.raises(ValueError, match=f"{directive} inside a parallel region"):
            with rt.region():
                rt.loop(KernelSpec("k1", writes=("y",)))
                getattr(rt, directive)("y")
        # the region closed on the way out: its loop is charged, and the
        # directive is legal again
        assert rt.stats.kernels == 1
        getattr(rt, directive)("y")

    @pytest.mark.parametrize("version", VERSIONS)
    def test_nested_region_is_refused(self, version):
        rt = version_runtime(version)
        with rt.region():
            with pytest.raises(RuntimeError, match="nested"):
                with rt.region():
                    pass
        with rt.region():  # the outer one closed cleanly
            pass
