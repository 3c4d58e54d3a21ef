"""``do concurrent`` execution engine.

DC semantics as nvfortran 22.11 maps them (SIV-B/D/E):

* one device kernel per DC loop -- converting a fused OpenACC region to DC
  *fissions* it (each loop pays its own launch);
* no ``async`` clause exists -- every launch is a synchronous host round
  trip;
* Fortran 2018 DC has no ``reduce``; scalar reductions need the Fortran
  202X preview (`dc2x_reduce=True`);
* array reductions are either ``!$acc atomic`` inside the DC body
  (Listing 4, Code 4) or the flipped outer-DC/inner-serial-reduce rewrite
  (Listing 5, Code 5/6) -- the strategy is picked by the config and the
  cost model charges the appropriate penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machine.gpu import GpuDevice
from repro.runtime.clock import SimClock
from repro.runtime.config import ArrayReductionStrategy
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.openacc import LaunchStats
from repro.runtime.pricing import PricedLaunch, PriceMemo, charge_launch, priced_launch
from repro.runtime.stream import AsyncQueue


class UnsupportedLoopError(RuntimeError):
    """A loop shape the DC backend cannot compile.

    Mirrors nvfortran's real restrictions: Fortran-2018 DC rejects
    reductions (no ``reduce`` clause before 202X) and routine calls are
    only supported when inlined.
    """


@dataclass(slots=True)
class DoConcurrentEngine:
    """Executes kernels with DC launch semantics (fission, synchronous)."""

    clock: SimClock
    env: DataEnvironment
    gpu: GpuDevice
    cost: KernelCostModel
    queue: AsyncQueue
    #: Fortran 202X preview features (-stdpar with the reduce clause).
    dc2x_reduce: bool = False
    #: Pure routines callable in DC bodies only after inlining (-Minline).
    routines_inlined: bool = False
    array_reduction: ArrayReductionStrategy = ArrayReductionStrategy.DC_ATOMIC
    working_set_bytes: float | None = None
    stats: LaunchStats = field(default_factory=LaunchStats)
    _memo: PriceMemo = field(default_factory=PriceMemo, repr=False)

    @property
    def unified_memory(self) -> bool:
        """Whether the data environment is UM-managed."""
        return self.env.mode is DataMode.UNIFIED

    def _check_supported(self, spec: KernelSpec) -> None:
        if spec.category is LoopCategory.SCALAR_REDUCTION and not self.dc2x_reduce:
            raise UnsupportedLoopError(
                f"scalar reduction {spec.name!r} needs the Fortran 202X reduce "
                "clause (dc2x_reduce=False keeps it on OpenACC, as in Code 2/3)"
            )
        if spec.category is LoopCategory.ARRAY_REDUCTION:
            if not self.dc2x_reduce and self.array_reduction is not ArrayReductionStrategy.ACC_ATOMIC:
                raise UnsupportedLoopError(
                    f"array reduction {spec.name!r}: DC array reductions need either "
                    "acc atomic inside DC (202X compilers) or the flipped rewrite"
                )
        if spec.category is LoopCategory.ROUTINE_CALLER and not self.routines_inlined:
            raise UnsupportedLoopError(
                f"loop {spec.name!r} calls a pure routine; nvfortran requires "
                "!$acc routine (OpenACC) or -Minline inlining for DC offload"
            )
        if spec.category is LoopCategory.KERNELS_REGION:
            raise UnsupportedLoopError(
                f"kernels region {spec.name!r} has no DC equivalent until its "
                "intrinsics are expanded into explicit DC loops (Code 5 rewrite)"
            )

    @property
    def priced_kernels(self) -> int:
        """Distinct kernels whose price is currently held."""
        return len(self._memo)

    def price(self, spec: KernelSpec) -> PricedLaunch:
        """What launching ``spec`` as one synchronous DC kernel costs;
        derived once per kernel and kept while the data environment and
        the working set stand still.

        Deriving it checks that the loop compiles under DC at all and runs
        the ``default(present)`` check.
        """
        entries = self._memo.entries(self.env.epoch, self.working_set_bytes)
        key = spec.cost_key
        priced = entries.get(key)
        if priced is None:
            self._check_supported(spec)
            touches = self.env.kernel_touches(spec)  # default(present) first
            body = self.cost.body_time(
                spec,
                self.env,
                self.gpu,
                working_set_bytes=self.working_set_bytes,
                array_reduction=self.array_reduction,
                unified_memory=self.unified_memory,
            )
            q = self.queue.simulate([body], async_launch=False)
            priced = entries[key] = priced_launch(
                spec,
                touches,
                body_seconds=q.body_time,
                gap_seconds=q.gap_time
                + (self.cost.um_launch_extra if self.unified_memory else 0.0),
                nbytes=self.cost.bytes_moved(spec, self.env),
            )
        return priced

    def charge(self, spec: KernelSpec) -> None:
        """Charge one DC loop: synchronous launch, one kernel."""
        charge_launch(self.price(spec), self.clock, self.env)
        self.stats.kernels += 1
        self.stats.launches += 1

    def execute(self, spec: KernelSpec) -> Any:
        """Run one DC loop: charge it, then run its body."""
        self.charge(spec)
        return spec.run_body()

    def execute_sequence(self, specs: list[KernelSpec]) -> list[Any]:
        """Run a fissioned sequence (what was one OpenACC region)."""
        return [self.execute(s) for s in specs]
