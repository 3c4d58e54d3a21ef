"""Table I's code versions: runtime semantics + compiler-flag metadata.

Each :class:`CodeVersion` binds the behavioural deltas of SIV (which loops
run under which backend, fusion/async availability, data management,
reduction strategy, device binding, wrapper-init kernels, duplicate CPU
routines) plus the descriptive columns of Table I (name tag, description,
nvfortran flags).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.runtime.config import (
    ArrayReductionStrategy,
    Backend,
    DeviceBindingMethod,
    RuntimeConfig,
    uniform_backend,
)
from repro.runtime.kernel import LoopCategory


class CodeVersion(enum.Enum):
    """All code versions of Table I (plus the CPU-only original)."""

    CPU = "0"
    A = "1"
    AD = "2"
    ADU = "3"
    AD2XU = "4"
    D2XU = "5"
    D2XAD = "6"


@dataclass(frozen=True, slots=True)
class VersionInfo:
    """Descriptive metadata (the prose columns of Table I)."""

    version: CodeVersion
    tag: str
    description: str
    compiler_flags: str
    #: Table I's reported line counts (for EXPERIMENTS.md comparison).
    paper_total_lines: int
    paper_acc_lines: int | None  # None renders as the empty-set symbol


_INFO: dict[CodeVersion, VersionInfo] = {
    CodeVersion.CPU: VersionInfo(
        CodeVersion.CPU, "0: CPU", "Original CPU-only version", "", 69874, None
    ),
    CodeVersion.A: VersionInfo(
        CodeVersion.A, "1: A", "Original OpenACC implementation",
        "-acc=gpu -gpu=cc80", 73865, 1458,
    ),
    CodeVersion.AD: VersionInfo(
        CodeVersion.AD, "2: AD",
        "OpenACC for DC-incompatible loops and data management, DC for remaining loops",
        "-acc=gpu -stdpar=gpu -gpu=cc80,nomanaged", 71661, 540,
    ),
    CodeVersion.ADU: VersionInfo(
        CodeVersion.ADU, "3: ADU",
        "OpenACC for DC-incompatible loops, DC for remaining loops, Unified memory",
        "-acc=gpu -stdpar=gpu -gpu=cc80,managed", 71269, 162,
    ),
    CodeVersion.AD2XU: VersionInfo(
        CodeVersion.AD2XU, "4: AD2XU",
        "OpenACC for functionality, DC2X for remaining loops, Unified memory",
        "-acc=gpu -stdpar=gpu -gpu=cc80,managed", 70868, 55,
    ),
    CodeVersion.D2XU: VersionInfo(
        CodeVersion.D2XU, "5: D2XU",
        "DC2X for all loops, some code modifications, Unified memory",
        "-stdpar=gpu -gpu=cc80 -Minline=reshape,name:s2c,boost,interp,c2s,sv2cv",
        68994, None,
    ),
    CodeVersion.D2XAD: VersionInfo(
        CodeVersion.D2XAD, "6: D2XAd",
        "DC2X for all loops, some code modifications, OpenACC for data management",
        "-acc=gpu -stdpar=gpu -gpu=cc80,nomanaged "
        "-Minline=reshape,name:s2c,boost,interp,c2s,sv2cv",
        71623, 277,
    ),
}

#: Stable iteration orders.
ALL_VERSIONS: tuple[CodeVersion, ...] = tuple(CodeVersion)
GPU_VERSIONS: tuple[CodeVersion, ...] = tuple(v for v in CodeVersion if v is not CodeVersion.CPU)


def version_info(version: CodeVersion) -> VersionInfo:
    """Table I metadata for one version."""
    return _INFO[version]


def runtime_config_for(version: CodeVersion) -> RuntimeConfig:
    """Executable runtime semantics for one code version (SIV A-F)."""
    if version is CodeVersion.CPU:
        return RuntimeConfig(name="code0_cpu", target="cpu")

    if version is CodeVersion.A:
        # Original OpenACC: fusion, async, manual data, atomic reductions.
        return RuntimeConfig(
            name="code1_A",
            loop_backend=uniform_backend(Backend.ACC),
            fusion=True,
            async_launch=True,
            array_reduction=ArrayReductionStrategy.ACC_ATOMIC,
            device_binding=DeviceBindingMethod.SET_DEVICE_NUM,
        )

    if version is CodeVersion.AD:
        # DC (F2018) for plain loops; OpenACC keeps reductions, atomics,
        # routine callers, kernels regions, and all data management.
        backends = uniform_backend(Backend.DC)
        backends[LoopCategory.SCALAR_REDUCTION] = Backend.ACC
        backends[LoopCategory.ARRAY_REDUCTION] = Backend.ACC
        backends[LoopCategory.ATOMIC_OTHER] = Backend.ACC
        backends[LoopCategory.ROUTINE_CALLER] = Backend.ACC
        backends[LoopCategory.KERNELS_REGION] = Backend.ACC
        return RuntimeConfig(
            name="code2_AD",
            loop_backend=backends,
            fusion=True,   # remaining OpenACC regions still fuse
            async_launch=False,  # the hot loops are DC now: no async hints
            array_reduction=ArrayReductionStrategy.ACC_ATOMIC,
            device_binding=DeviceBindingMethod.SET_DEVICE_NUM,
        )

    if version is CodeVersion.ADU:
        cfg = runtime_config_for(CodeVersion.AD)
        return RuntimeConfig(
            name="code3_ADU",
            loop_backend=dict(cfg.loop_backend),
            fusion=cfg.fusion,
            async_launch=cfg.async_launch,
            unified_memory=True,
            array_reduction=cfg.array_reduction,
            device_binding=DeviceBindingMethod.SET_DEVICE_NUM,
        )

    if version is CodeVersion.AD2XU:
        # DC2X reduce for scalar reductions; atomics inside DC for array
        # reductions; UM. Remaining OpenACC: atomic/declare/update/
        # set device_num/routine/kernels.
        backends = uniform_backend(Backend.DC2X)
        backends[LoopCategory.ROUTINE_CALLER] = Backend.ACC
        backends[LoopCategory.KERNELS_REGION] = Backend.ACC
        return RuntimeConfig(
            name="code4_AD2XU",
            loop_backend=backends,
            fusion=False,
            async_launch=False,
            unified_memory=True,
            array_reduction=ArrayReductionStrategy.DC_ATOMIC,
            device_binding=DeviceBindingMethod.SET_DEVICE_NUM,
        )

    if version is CodeVersion.D2XU:
        # Zero OpenACC: flipped array reductions, kernels regions expanded,
        # routines inlined, env-var device binding, no duplicate CPU
        # routines (UM pages during setup).
        return RuntimeConfig(
            name="code5_D2XU",
            loop_backend=uniform_backend(Backend.DC2X),
            fusion=False,
            async_launch=False,
            unified_memory=True,
            array_reduction=ArrayReductionStrategy.FLIPPED_DC,
            device_binding=DeviceBindingMethod.ENV_VISIBLE_DEVICES,
            inline_routines=True,
            duplicate_cpu_routines=False,
        )

    if version is CodeVersion.D2XAD:
        # Code 5 + manual data directives back (wrapper create/init
        # routines) and duplicate CPU routines restored.
        return RuntimeConfig(
            name="code6_D2XAd",
            loop_backend=uniform_backend(Backend.DC2X),
            fusion=False,
            async_launch=False,
            unified_memory=False,
            array_reduction=ArrayReductionStrategy.FLIPPED_DC,
            device_binding=DeviceBindingMethod.ENV_VISIBLE_DEVICES,
            inline_routines=True,
            wrapper_init_kernels=True,
            duplicate_cpu_routines=True,
        )

    raise ValueError(f"unknown code version {version}")
