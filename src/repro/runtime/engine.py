"""The launch-pricing engine: one class for the CPU, OpenACC and DC backends.

A rank holds one :class:`Engine` per backend it runs loops on, and the
three differ only in settings. What the paper credits for Code 1's
performance edge (SIV-B, SVI) is settings and call patterns of the one
class: kernel fusion is the dispatcher handing the OpenACC engine a
:class:`~repro.runtime.fusion.FusionGroup` plan (``charge_region``),
asynchronous launch queues are ``async_launch``. ``do concurrent`` differs
from OpenACC by exactly two things (SIV-B): fission, which is the
dispatcher never handing the DC engine a group, and synchronous launches,
which is ``async_launch=False``; what nvfortran refuses to compile as DC
at all is the ``admit`` check
(:func:`repro.runtime.doconcurrent.check_supported`). Code 0 differs only
in the ``machine`` that prices a kernel: a CPU node runs a loop at its
roofline and never launches one.

The engine only accounts cost: :meth:`Engine.price` derives a kernel's
price, memoised per kernel and its seconds per set of numbers
(:mod:`repro.runtime.pricing`), and
:meth:`Engine.charge` (one kernel) and :meth:`Engine.charge_region` (a
fusion plan) apply it to the clock and count the launch. Numerical
bodies are run by the dispatcher, eagerly in submission order -- fusion
and async change *cost*, never results (the loops are data independent by
construction, which the fusion planner verifies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.machine.cpu import CpuNodeModel
from repro.machine.gpu import GpuDevice
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import ArrayReductionStrategy
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.fusion import FusionGroup
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.pricing import (
    PricedLaunch,
    PriceMemo,
    fault_in,
    observe_kernel,
    priced_launch,
    touch_and_observe,
)
from repro.runtime.stream import AsyncQueue

#: Looked up once: an enum member read off its class costs a Python call.
_LAUNCH = TimeCategory.LAUNCH


@dataclass(slots=True)
class LaunchStats:
    """Counters for launches/fusion, reported by the bench and asserted in tests."""

    kernels: int = 0
    launches: int = 0
    fused_away: int = 0

    def merge(self, other: "LaunchStats") -> None:
        """Accumulate another engine's counters."""
        self.kernels += other.kernels
        self.launches += other.launches
        self.fused_away += other.fused_away


@dataclass(slots=True)
class Engine:
    """Prices and charges one backend's kernel launches, alone or as
    fusion groups."""

    clock: SimClock
    env: DataEnvironment
    #: What runs the kernels: a GPU (``KernelCostModel.body_time`` plus the
    #: queue's launch gap) or a CPU node (its roofline; no launch at all).
    machine: GpuDevice | CpuNodeModel
    cost: KernelCostModel
    queue: AsyncQueue
    async_launch: bool = True
    array_reduction: ArrayReductionStrategy = ArrayReductionStrategy.ACC_ATOMIC
    #: Raises for a kernel this backend cannot compile; run once per
    #: distinct kernel, when its price is derived.
    admit: Callable[[KernelSpec], None] | None = None
    #: Ranks of the job; a CPU node's locality boost depends on it.
    num_ranks: int = 1
    #: The ``version`` label of ``kernel_launches_total``.
    version: str = ""
    working_set_bytes: float | None = None
    stats: LaunchStats = field(default_factory=LaunchStats)
    _memo: PriceMemo = field(default_factory=PriceMemo, repr=False)

    @property
    def unified_memory(self) -> bool:
        """Whether the data environment is UM-managed."""
        return self.env.mode is DataMode.UNIFIED

    def _launch_gap_extra(self) -> float:
        return self.cost.um_launch_extra if self.unified_memory else 0.0

    def _gap(self, q_gap: float, n_groups: int) -> float:
        """Wall gap for a launch plan.

        With ``async`` the host never waits on completions: each launch
        costs only its submit overhead (the queue keeps the device fed).
        Synchronous launches pay the full round trip the queue computed.
        """
        if self.async_launch:
            return self.queue.submit_overhead * n_groups + self._launch_gap_extra() * n_groups
        return q_gap + self._launch_gap_extra() * n_groups

    # -- pricing -------------------------------------------------------------

    @property
    def priced_kernels(self) -> int:
        """Distinct kernels whose price is currently held."""
        return len(self._memo)

    def price(self, spec: KernelSpec) -> PricedLaunch:
        """What launching ``spec`` costs; derived once per kernel and kept
        while the data environment and the working set stand still.

        Deriving it runs the ``admit`` and ``default(present)`` checks, so
        a kernel whose arrays left the device raises here on its next launch.
        A price is numbers plus names: its seconds are derived once per
        (bytes, flops per byte, category, ``mpi_pack`` tag) in the same
        window, so kernels that differ only in names (the fields of one
        halo face) share them.
        """
        memo = self._memo
        entries = memo.entries(self.env.epoch, self.working_set_bytes)
        key = spec.cost_key
        priced = entries.get(key)
        if priced is None:
            if self.admit is not None:
                self.admit(spec)
            touches = self.env.kernel_touches(spec)  # default(present) first
            nbytes = self.cost.bytes_moved(spec, self.env)
            numbers = (nbytes, spec.flops_per_byte, spec.category, "mpi_pack" in spec.tags)
            seconds = memo.numbers.get(numbers)
            if seconds is None:
                seconds = memo.numbers[numbers] = self._seconds(*numbers)
            priced = entries[key] = priced_launch(
                spec, touches, body_seconds=seconds[0], gap_seconds=seconds[1], nbytes=nbytes
            )
        return priced

    def _seconds(
        self, nbytes: float, flops_per_byte: float, category: LoopCategory, pack: bool
    ) -> tuple[float, float | None]:
        """Body and launch-gap seconds of a kernel moving ``nbytes`` on its
        own (a gap of None: the CPU never launches it)."""
        machine = self.machine
        if isinstance(machine, CpuNodeModel):
            # bytes are already rank-local, so only the multi-node locality
            # boost (speedup/n) applies on top of the single-node roofline.
            boost = machine.speedup(self.num_ranks) / self.num_ranks
            return machine.kernel_time(nbytes) / boost * self.cost.body_scale, None
        body = self.cost.body_seconds(
            nbytes,
            flops_per_byte,
            category,
            pack,
            machine,
            working_set_bytes=self.working_set_bytes,
            array_reduction=self.array_reduction,
            unified_memory=self.unified_memory,
        )
        # On its own the kernel is one submit/complete round trip.
        q = self.queue.simulate([body], async_launch=self.async_launch)
        return q.body_time, self._gap(q.gap_time, 1)

    # -- charging ------------------------------------------------------------

    def launch_counter(self, m, category: LoopCategory):
        """This engine's ``kernel_launches_total`` child for ``category``, kept in ``m.bound``."""
        key = (self.version, category)
        child = m.bound.get(key)
        if child is None:
            child = m.bound[key] = m.counter(
                "kernel_launches_total",
                "kernel launches, by code version and loop category",
                labelnames=("version", "category"),
            ).labels(version=self.version, category=category.value)
        return child

    def charge(self, priced: PricedLaunch, category: LoopCategory) -> None:
        """Charge one kernel launched on its own: faults, gap, body.

        ``priced`` is what :meth:`price` gave for the kernel, and
        ``category`` the loop category the launch is counted under (the
        loop's own, also when a rewrite priced another kernel for it).
        """
        clock = self.clock
        if priced.touches:
            fault_in(priced, clock, self.env)
        tel = _telemetry()
        if tel.enabled:
            observe_kernel(tel.metrics, priced)
        gap = priced.gap_seconds
        if clock._observers:
            # the profiler sees every advance
            if gap is not None:
                clock.advance(gap, _LAUNCH, priced.launch_label)
            clock.advance(priced.body_seconds, priced.body_category, priced.label)
        else:
            # ``advance``'s two adds, in its order; the price was checked
            # finite and non-negative when it was derived
            totals = clock.by_category
            if gap is not None:
                clock.now += gap
                totals[_LAUNCH] = totals.get(_LAUNCH, 0.0) + gap
            body, where = priced.body_seconds, priced.body_category
            clock.now += body
            totals[where] = totals.get(where, 0.0) + body
        stats = self.stats
        stats.kernels += 1
        stats.launches += 1
        if tel.enabled:
            self.launch_counter(tel.metrics, category).inc()

    def _price_group(self, group: FusionGroup) -> tuple[float, TimeCategory]:
        """Fault in and observe a fused group's kernels in order; returns
        the group's summed body seconds and its clock category."""
        body = 0.0
        category = TimeCategory.COMPUTE
        for spec in group.kernels:
            priced = self.price(spec)
            touch_and_observe(priced, self.clock, self.env)
            body += priced.body_seconds
            if priced.body_category is TimeCategory.MPI_PACK:
                category = TimeCategory.MPI_PACK
        self.stats.kernels += group.size
        self.stats.launches += 1
        self.stats.fused_away += group.size - 1
        return body, category

    def charge_region(self, groups: list[FusionGroup]) -> None:
        """Charge a whole parallel region's launch plan.

        With ``async`` the queue hides inter-group launch gaps; without it
        each group pays a full round trip. We model this by simulating the
        group launch sequence through the queue.
        """
        if not groups:
            return
        tel = _telemetry()
        if tel.enabled:
            for group in groups:
                self.launch_counter(tel.metrics, group.kernels[0].category).inc()
        priced = [self._price_group(group) for group in groups]
        q = self.queue.simulate(
            [body for body, _ in priced], async_launch=self.async_launch
        )
        gap = self._gap(q.gap_time, len(groups))
        self.clock.advance(gap, TimeCategory.LAUNCH, f"launch_region({groups[0].name})")
        for group, (body, category) in zip(groups, priced):
            self.clock.advance(body, category, group.name)
