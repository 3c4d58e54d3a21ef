"""Runtime configuration: how each code version executes loops and data.

One :class:`RuntimeConfig` captures the behavioural column of Table I for a
code version: which backend runs each loop category, whether OpenACC fusion
and ``async`` are available, how array reductions are implemented, and how
data moves (manual directives vs unified managed memory).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.runtime.kernel import LoopCategory


class Backend(enum.Enum):
    """Who compiles/launches a given loop."""

    ACC = "openacc"      # !$acc parallel loop
    DC = "do_concurrent"  # Fortran 2018 do concurrent
    DC2X = "do_concurrent_2x"  # DC with the Fortran 202X reduce clause
    CPU = "cpu"          # no offload (Code 0)


class ArrayReductionStrategy(enum.Enum):
    """The three array-reduction implementations of SIV (Listings 3-5)."""

    ACC_ATOMIC = "acc_atomic"      # OpenACC loop + atomic update (Listing 3)
    DC_ATOMIC = "dc_atomic"        # DC loop + acc atomic inside (Listing 4)
    FLIPPED_DC = "flipped_dc"      # outer DC + inner serialized reduce (Listing 5)


class DeviceBindingMethod(enum.Enum):
    """How multi-GPU runs pick a device per MPI rank (SIV-E, Listing 6)."""

    SET_DEVICE_NUM = "acc_set_device_num"      # the last OpenACC directive
    ENV_VISIBLE_DEVICES = "cuda_visible_devices"  # launch.sh wrapper


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Complete behavioural description of one code version's runtime."""

    name: str
    target: str = "gpu"  # "gpu" or "cpu"
    loop_backend: dict[LoopCategory, Backend] = field(default_factory=dict)
    fusion: bool = False
    async_launch: bool = False
    #: Unified managed memory instead of manual data directives.
    unified_memory: bool = False
    array_reduction: ArrayReductionStrategy = ArrayReductionStrategy.ACC_ATOMIC
    device_binding: DeviceBindingMethod = DeviceBindingMethod.SET_DEVICE_NUM
    #: Code 6 wraps array creation in create+init routines, adding
    #: initialization kernels the original code did not have (SIV-F).
    wrapper_init_kernels: bool = False
    #: Codes 0-4 and 6 keep duplicate CPU-only setup routines; Code 5 drops
    #: them and lets UM page during setup (SIV-E).
    duplicate_cpu_routines: bool = True
    #: Routines called in kernels are inlined (-Minline) instead of using
    #: !$acc routine (Code 5/6).
    inline_routines: bool = False
    #: Cross-region launch fusion: collapse adjacent plain-category kernels
    #: *between* synchronization points into shared launches (beyond the
    #: per-region fusion the ``fusion`` flag models). Off by default; a
    #: perf-opt switch, not part of the Table I taxonomy.
    cross_region_fusion: bool = False

    def __post_init__(self) -> None:
        if self.target not in ("gpu", "cpu"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == "gpu" and not self.loop_backend:
            raise ValueError("GPU configs must map loop categories to backends")
        if self.target == "cpu" and self.unified_memory:
            raise ValueError("unified memory is meaningless for CPU runs")

    def backend_for(self, category: LoopCategory) -> Backend:
        """Backend that executes loops of ``category``."""
        if self.target == "cpu":
            return Backend.CPU
        try:
            return self.loop_backend[category]
        except KeyError:
            raise ValueError(
                f"config {self.name!r} does not map loop category {category.value!r}"
            ) from None

    @property
    def uses_openacc(self) -> bool:
        """True if any loop category still needs the OpenACC runtime."""
        return any(b is Backend.ACC for b in self.loop_backend.values())

    @property
    def supports_pipelined_reductions(self) -> bool:
        """True if nonblocking fused reductions can overlap with compute.

        Pipelined PCG posts its allreduce and hides it behind the
        preconditioner/matvec; that only buys anything when the runtime
        has async launch queues (OpenACC ``async``, Code A/1). Without
        them the pipelined solver degrades to blocking fused reductions
        (communication-avoiding volume, no overlap).
        """
        return self.async_launch

    @property
    def supports_halo_overlap(self) -> bool:
        """True if halo exchanges can proceed under interior compute.

        Overlapped halos post pack kernels and sends on a side stream and
        only synchronize at ``exchange_finish``; like pipelined reductions
        this needs async launch queues (OpenACC ``async``, Code A/1).
        Runtimes without them fall back to the bulk-synchronous exchange.
        """
        return self.async_launch

    def with_unified_memory(self) -> "RuntimeConfig":
        """This config with UM instead of manual data (the paper's Code-1/2
        +UM control experiment in SV-C)."""
        return replace(self, name=self.name + "+UM", unified_memory=True)


def uniform_backend(backend: Backend) -> dict[LoopCategory, Backend]:
    """Map every loop category to one backend."""
    return {cat: backend for cat in LoopCategory}
