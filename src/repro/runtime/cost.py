"""Kernel cost model: bytes -> seconds on a given GPU.

MAS is memory-bound (paper SIII), so the device time of a kernel body is its
memory traffic over the sustained bandwidth, degraded by strategy-specific
penalties (atomics serialize HBM update traffic; the flipped DC array
reduction serializes the inner loop; SIV-D/E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dependence import base_name
from repro.machine.gpu import GpuDevice
from repro.runtime.config import ArrayReductionStrategy
from repro.runtime.data_env import DataEnvironment
from repro.runtime.kernel import KernelSpec, LoopCategory


@dataclass(frozen=True, slots=True)
class KernelCostModel:
    """Tunable constants of the kernel-time model.

    Provenance of defaults is documented in `repro.perf.calibration`, which
    is the single place experiments construct these from.
    """

    #: Bandwidth efficiency multiplier for atomic-update array reductions.
    atomic_penalty: float = 0.80
    #: Bandwidth efficiency multiplier for the flipped outer-DC reduction
    #: (inner loop serialized by nvfortran; close to full speed for the
    #: long-outer-loop shapes MAS has).
    flipped_penalty: float = 0.90
    #: Bandwidth efficiency multiplier for kernels regions (array syntax /
    #: intrinsics; the compiler does a decent job, mild penalty).
    kernels_region_penalty: float = 0.95
    #: Extra per-launch host overhead when unified memory is active
    #: (driver residency bookkeeping; visible as larger gaps in Fig. 4).
    um_launch_extra: float = 10.0e-6
    #: Bandwidth efficiency multiplier applied to kernel bodies under UM
    #: (page-table pressure; the paper observes non-MPI time rising only
    #: modestly under UM, Fig. 3).
    um_body_efficiency: float = 0.94
    #: Per-rank multiplicative jitter on kernel bodies (>=1), modelling the
    #: load imbalance that produces MPI wait time at exchanges. Rank 0 of a
    #: job gets 1.0; others get small deterministic offsets.
    body_scale: float = 1.0
    #: Memory-pressure coefficient on MPI buffer kernels: when the device
    #: is nearly full (the paper's 36M-cell case "fits" a 40GB A100), halo
    #: buffer loading slows by 1 + coeff * (working_set/mem)^2. This is why
    #: the manual codes' MPI *share* falls from 14% at 1 GPU to ~9% at 8
    #: in Fig. 3. Calibrated in repro.perf.calibration.
    mpi_buffer_pressure: float = 0.0

    def __post_init__(self) -> None:
        for name in ("atomic_penalty", "flipped_penalty", "kernels_region_penalty",
                     "um_body_efficiency"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.um_launch_extra < 0:
            raise ValueError("um_launch_extra cannot be negative")
        if self.body_scale < 1.0:
            raise ValueError("body_scale models imbalance overhead and must be >= 1")
        if self.mpi_buffer_pressure < 0:
            raise ValueError("mpi_buffer_pressure cannot be negative")

    def bytes_moved(self, spec: KernelSpec, env: DataEnvironment) -> float:
        """Paper-scale HBM traffic of one kernel."""
        if spec.bytes_override is not None:
            return spec.bytes_override * spec.work_fraction
        total = 0.0
        for name in spec.reads:
            total += env.nominal_bytes(base_name(name))
        for name in spec.writes:
            total += env.nominal_bytes(base_name(name))
        return total * spec.work_fraction

    def strategy_efficiency(
        self,
        category: LoopCategory,
        *,
        array_reduction: ArrayReductionStrategy,
        unified_memory: bool,
    ) -> float:
        """Combined bandwidth-efficiency multiplier for a kernel of ``category``."""
        eff = 1.0
        if category is LoopCategory.ARRAY_REDUCTION:
            if array_reduction is ArrayReductionStrategy.FLIPPED_DC:
                eff *= self.flipped_penalty
            else:
                eff *= self.atomic_penalty
        elif category is LoopCategory.ATOMIC_OTHER:
            eff *= self.atomic_penalty
        elif category is LoopCategory.KERNELS_REGION:
            eff *= self.kernels_region_penalty
        if unified_memory:
            eff *= self.um_body_efficiency
        return eff

    def body_time(
        self,
        spec: KernelSpec,
        env: DataEnvironment,
        gpu: GpuDevice,
        *,
        working_set_bytes: float | None,
        array_reduction: ArrayReductionStrategy,
        unified_memory: bool,
    ) -> float:
        """Device-busy time of the kernel body (no launch overhead)."""
        return self.body_seconds(
            self.bytes_moved(spec, env), spec.flops_per_byte, spec.category,
            "mpi_pack" in spec.tags, gpu, working_set_bytes=working_set_bytes,
            array_reduction=array_reduction, unified_memory=unified_memory,
        )

    def body_seconds(
        self,
        nbytes: float,
        flops_per_byte: float,
        category: LoopCategory,
        pack: bool,
        gpu: GpuDevice,
        *,
        working_set_bytes: float | None,
        array_reduction: ArrayReductionStrategy,
        unified_memory: bool,
    ) -> float:
        """:meth:`body_time` from the numbers it reads off a kernel: its
        bytes, flops per byte, loop category and whether it is a halo
        buffer (``mpi_pack``) kernel. Kernels that differ only in names
        share these."""
        eff = self.strategy_efficiency(
            category, array_reduction=array_reduction, unified_memory=unified_memory
        )
        base = gpu.kernel_device_time(
            nbytes, nbytes * flops_per_byte, working_set_bytes=working_set_bytes
        )
        scale = self.body_scale
        if self.mpi_buffer_pressure > 0 and pack and working_set_bytes is not None:
            frac = min(working_set_bytes / gpu.spec.mem_bytes, 1.0)
            scale *= 1.0 + self.mpi_buffer_pressure * frac * frac
        return base / eff * scale
