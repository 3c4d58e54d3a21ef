"""The per-rank dispatcher as it stood before its engines became one class.

Oracle for ``test_reference_dispatcher.py``: everything below the imports
is the parent commit's ``RankRuntime`` (``repro/runtime/dispatcher.py``),
its ``GpuEngine`` and ``LaunchStats`` (``repro/runtime/engine.py``),
``charge_launch`` (``repro/runtime/pricing.py``) and ``FusionPlanner``
(``repro/runtime/fusion.py``), moved here verbatim. It prices the CPU in
``RankRuntime._price_cpu`` beside the GPU engines' ``price``, and keeps
a region planner and a cross-region window with their own flushes; the
one-engine dispatcher in ``repro.runtime`` must reproduce its clock
events, launch counters, held prices and telemetry to the bit. Do not
"tidy" it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from repro.machine.cpu import CpuNodeModel
from repro.machine.gpu import GpuDevice
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import ArrayReductionStrategy, Backend, RuntimeConfig
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.doconcurrent import check_supported
from repro.runtime.fusion import FusionGroup, plan_fusion, plan_fusion_window, validate_plan
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.pricing import PricedLaunch, PriceMemo, priced_launch, touch_and_observe
from repro.runtime.stream import AsyncQueue


def charge_launch(priced: PricedLaunch, clock: SimClock, env: "DataEnvironment") -> None:
    """Charge one kernel launched on its own: faults, gap, body."""
    touch_and_observe(priced, clock, env)
    clock.advance(priced.gap_seconds, TimeCategory.LAUNCH, priced.launch_label)
    clock.advance(priced.body_seconds, priced.body_category, priced.label)


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
class GpuEngine:
    """Prices and charges GPU kernel launches, alone or as fusion groups."""

    clock: SimClock
    env: DataEnvironment
    gpu: GpuDevice
    cost: KernelCostModel
    queue: AsyncQueue
    async_launch: bool = True
    array_reduction: ArrayReductionStrategy = ArrayReductionStrategy.ACC_ATOMIC
    #: Raises for a kernel this backend cannot compile; run once per
    #: distinct kernel, when its price is derived.
    admit: Callable[[KernelSpec], None] | None = None
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
        """
        entries = self._memo.entries(self.env.epoch, self.working_set_bytes)
        key = spec.cost_key
        priced = entries.get(key)
        if priced is None:
            if self.admit is not None:
                self.admit(spec)
            touches = self.env.kernel_touches(spec)  # default(present) first
            body = self.cost.body_time(
                spec,
                self.env,
                self.gpu,
                working_set_bytes=self.working_set_bytes,
                array_reduction=self.array_reduction,
                unified_memory=self.unified_memory,
            )
            # On its own the kernel is one submit/complete round trip.
            q = self.queue.simulate([body], async_launch=self.async_launch)
            priced = entries[key] = priced_launch(
                spec,
                touches,
                body_seconds=q.body_time,
                gap_seconds=self._gap(q.gap_time, 1),
                nbytes=self.cost.bytes_moved(spec, self.env),
            )
        return priced

    # -- charging ------------------------------------------------------------

    def charge_single(self, spec: KernelSpec) -> None:
        """Charge one kernel launched outside any region."""
        charge_launch(self.price(spec), self.clock, self.env)
        self.stats.kernels += 1
        self.stats.launches += 1

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
        priced = [self._price_group(group) for group in groups]
        q = self.queue.simulate(
            [body for body, _ in priced], async_launch=self.async_launch
        )
        gap = self._gap(q.gap_time, len(groups))
        self.clock.advance(gap, TimeCategory.LAUNCH, f"launch_region({groups[0].name})")
        for group, (body, category) in zip(groups, priced):
            self.clock.advance(body, category, group.name)


class FusionPlanner:
    """Stateful region recorder used by the OpenACC engine.

    Kernels submitted inside an open region are buffered; closing the region
    returns the fusion plan. Nested regions are not allowed (OpenACC forbids
    nested parallel regions in MAS's usage).
    """

    def __init__(self, *, enabled: bool) -> None:
        self.enabled = enabled
        self._open = False
        self._buffer: list[KernelSpec] = []

    @property
    def in_region(self) -> bool:
        """True while a parallel region is open."""
        return self._open

    def open_region(self) -> None:
        """Begin buffering kernels for one parallel region."""
        if self._open:
            raise RuntimeError("nested parallel regions are not supported")
        self._open = True
        self._buffer = []

    def submit(self, spec: KernelSpec) -> None:
        """Add a kernel to the open region."""
        if not self._open:
            raise RuntimeError("submit() outside a parallel region")
        self._buffer.append(spec)

    def close_region(self) -> list[FusionGroup]:
        """End the region and return its launch groups."""
        if not self._open:
            raise RuntimeError("close_region() without an open region")
        self._open = False
        plan = plan_fusion(self._buffer, enabled=self.enabled)
        self._buffer = []
        return plan


def _cost_only(spec: KernelSpec) -> KernelSpec:
    """Strip the body of a spec the planner or the window buffers, so a
    buffered launch holds none of the arrays its body captured."""
    if spec.body is None:
        return spec
    return KernelSpec(
        name=spec.name,
        category=spec.category,
        reads=spec.reads,
        writes=spec.writes,
        flops_per_byte=spec.flops_per_byte,
        work_fraction=spec.work_fraction,
        bytes_override=spec.bytes_override,
        body=None,
        tags=spec.tags,
    )


class RankRuntime:
    """Everything one simulated MPI rank needs to execute the MHD step."""

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        clock: SimClock | None = None,
        env: DataEnvironment | None = None,
        gpu: GpuDevice | None = None,
        cpu_model: CpuNodeModel | None = None,
        num_ranks: int = 1,
        cost: KernelCostModel | None = None,
        queue: AsyncQueue | None = None,
    ) -> None:
        self.config = config
        self.clock = clock or SimClock()
        self.num_ranks = num_ranks
        self.cost = cost or KernelCostModel()
        self.queue = queue or AsyncQueue()
        if config.target == "cpu":
            if cpu_model is None:
                raise ValueError("CPU configs need a cpu_model")
            self.cpu_model = cpu_model
            self.gpu = None
            self.env = env or DataEnvironment(DataMode.CPU)
        else:
            if gpu is None:
                raise ValueError("GPU configs need a gpu device")
            if env is None:
                raise ValueError("GPU configs need a data environment")
            expected = DataMode.UNIFIED if config.unified_memory else DataMode.MANUAL
            if env.mode is not expected:
                raise ValueError(
                    f"config {config.name!r} expects {expected.value} data mode, "
                    f"environment is {env.mode.value}"
                )
            self.cpu_model = None
            self.gpu = gpu
            self.env = env
        self._working_set = 0.0
        self._cpu_memo = PriceMemo()
        #: One engine class, two launch disciplines: OpenACC loops launch
        #: async and fuse; DC loops launch one by one, synchronously, and
        #: only if nvfortran would compile them.
        self._acc: GpuEngine | None = None
        self._dc: GpuEngine | None = None
        self._engines: tuple[GpuEngine, ...] = ()
        if self.gpu is not None:
            engine = partial(
                GpuEngine,
                clock=self.clock,
                env=self.env,
                gpu=self.gpu,
                cost=self.cost,
                queue=self.queue,
                array_reduction=config.array_reduction,
            )
            self._acc = engine(async_launch=config.async_launch)
            self._dc = engine(
                async_launch=False,
                admit=partial(
                    check_supported,
                    dc2x_reduce=any(
                        b is Backend.DC2X for b in config.loop_backend.values()
                    ),
                    routines_inlined=config.inline_routines,
                    array_reduction=config.array_reduction,
                ),
            )
            self._engines = (self._acc, self._dc)
        self._planner = FusionPlanner(enabled=config.fusion)
        self._cpu_stats = LaunchStats()
        #: Cross-region window: plain/atomic kernels dispatched *outside*
        #: explicit regions buffer here until the next synchronization
        #: point, then launch as one hoisting-fused plan.
        plain_backend = (
            None if config.target == "cpu"
            else config.loop_backend.get(LoopCategory.PLAIN)
        )
        self._cross_region = (
            config.cross_region_fusion
            and config.fusion
            and plain_backend is Backend.ACC
        )
        self._window: list[KernelSpec] = []
        self._window_pack = False
        #: Optional shadow checker (repro.analysis.shadow); None keeps the
        #: dispatch hot path at a single attribute test.
        self._shadow = None

    # -- clocks --------------------------------------------------------------

    def set_clock(self, clock: SimClock) -> None:
        """Retarget all cost charging to ``clock``.

        The overlapped halo engine uses this to run pack/send/unpack cost
        on a detached communication timeline while the main clock keeps
        advancing under interior compute.
        """
        self.clock = clock
        for engine in self._engines:
            engine.clock = clock

    # -- shadow checker ------------------------------------------------------

    def attach_shadow(self, checker) -> None:
        """Attach a :class:`~repro.analysis.shadow.ShadowChecker`."""
        self._shadow = checker

    # -- array registration -------------------------------------------------

    def register_array(self, name: str, nominal_bytes: int, data=None) -> None:
        """Register a logical array and (manual mode) place it on device."""
        self.env.register(name, nominal_bytes, data)
        if self.env.mode is DataMode.MANUAL:
            for c in self.env.enter_data(name):
                self.clock.advance(c.seconds, c.category, c.label)
        # an exact integer total, so the float is the one a full re-sum gives
        self._working_set = float(self.env.total_nominal_bytes)
        for engine in self._engines:
            engine.working_set_bytes = self._working_set

    @property
    def working_set_bytes(self) -> float:
        """Total nominal bytes of registered arrays (locality-model input)."""
        return self._working_set

    # -- stats ---------------------------------------------------------------

    @property
    def stats(self) -> LaunchStats:
        """Combined launch counters across both engines."""
        total = LaunchStats()
        for engine in self._engines:
            total.merge(engine.stats)
        total.merge(self._cpu_stats)
        return total

    @property
    def priced_kernels(self) -> int:
        """Distinct kernels whose price is currently held: bounded by the
        model's kernel vocabulary, not by how long it runs."""
        return len(self._cpu_memo) + sum(e.priced_kernels for e in self._engines)

    # -- regions -------------------------------------------------------------

    def _count_launches(self, groups: list[FusionGroup]) -> None:
        if _telemetry().enabled:
            for g in groups:
                self._count_launch(g.kernels[0].category)

    def _count_launch(self, category: LoopCategory) -> None:
        tel = _telemetry()
        if tel.enabled:
            bound = tel.metrics.bound
            key = (self.config.name, category)
            child = bound.get(key)
            if child is None:
                child = bound[key] = tel.metrics.counter(
                    "kernel_launches_total",
                    "kernel launches, by code version and loop category",
                    labelnames=("version", "category"),
                ).labels(version=self.config.name, category=category.value)
            child.inc()

    def _run_groups(self, groups: list[FusionGroup]) -> None:
        if not groups:
            return
        assert self._acc is not None
        self._count_launches(groups)
        self._acc.charge_region(groups)

    @contextmanager
    def region(self) -> Iterator[None]:
        """A fusable sequence of loops (an OpenACC parallel region).

        Transparent for DC backends: each loop inside is its own kernel.
        """
        plain_backend = (
            Backend.CPU if self.config.target == "cpu"
            else self.config.backend_for(LoopCategory.PLAIN)
        )
        if plain_backend is not Backend.ACC:
            yield
            return
        self._flush_window()
        self._planner.open_region()
        try:
            yield
        finally:
            self._run_groups(self._planner.close_region())

    def _flush_region(self) -> None:
        """Execute buffered fusable loops before a non-bufferable op."""
        if self._planner.in_region:
            self._run_groups(self._planner.close_region())
            self._planner.open_region()

    def _flush_window(self) -> None:
        """Launch the buffered cross-region window, if any."""
        if not self._window:
            return
        window, self._window = self._window, []
        groups = plan_fusion_window(window)
        problems = validate_plan(window, groups)
        if problems:  # pragma: no cover - planner bug guard
            raise RuntimeError(
                "cross-region fusion plan violates dependences: "
                + "; ".join(problems)
            )
        self._run_groups(groups)

    def sync(self) -> None:
        """Synchronization point: launch all buffered work on this rank.

        Called by the MPI layer (barriers, collectives, halo exchanges)
        and at step boundaries before reading the clock; everything that
        observes simulated time must drain the cross-region window first.
        """
        self._flush_region()
        self._flush_window()

    # -- loop entry points -----------------------------------------------------

    def loop(self, spec: KernelSpec) -> Any:
        """A plain parallel loop nest (Listing 1/2)."""
        return self._dispatch(spec, LoopCategory.PLAIN)

    def scalar_reduction(self, spec: KernelSpec) -> Any:
        """A loop reducing into a scalar (sum/min/max)."""
        return self._dispatch(spec, LoopCategory.SCALAR_REDUCTION)

    def array_reduction(self, spec: KernelSpec) -> Any:
        """An array-accumulating reduction (Listings 3-5)."""
        return self._dispatch(spec, LoopCategory.ARRAY_REDUCTION)

    def atomic_loop(self, spec: KernelSpec) -> Any:
        """A non-reduction loop with atomic updates."""
        return self._dispatch(spec, LoopCategory.ATOMIC_OTHER)

    def kernels_region(self, spec: KernelSpec) -> Any:
        """An ``!$acc kernels`` region (array syntax / intrinsics).

        When its backend is DC, the region is behaviourally what Code 5 did
        by hand: the intrinsic is expanded into an explicit DC reduction
        loop.
        """
        return self._dispatch(spec, LoopCategory.KERNELS_REGION)

    def routine_loop(self, spec: KernelSpec) -> Any:
        """A loop calling pure routines (needs !$acc routine or inlining)."""
        return self._dispatch(spec, LoopCategory.ROUTINE_CALLER)

    def _dispatch(self, spec: KernelSpec, category: LoopCategory) -> Any:
        if spec.category is not category:
            spec = KernelSpec(
                name=spec.name,
                category=category,
                reads=spec.reads,
                writes=spec.writes,
                flops_per_byte=spec.flops_per_byte,
                work_fraction=spec.work_fraction,
                bytes_override=spec.bytes_override,
                body=spec.body,
                tags=spec.tags,
            )
        if self._shadow is not None:
            self._shadow.on_launch(
                spec, self.env, async_launch=self.config.async_launch
            )
            result = self._shadow.run_body(spec, self.env)
        else:
            result = spec.run_body()
        # The body has run; from here on only cost is accounted.
        if self.config.target == "cpu":
            self._charge_cpu(spec)
            self._count_launch(category)
            return result
        backend = self.config.backend_for(category)
        if backend is Backend.ACC:
            assert self._acc is not None
            if self._planner.in_region and category in (
                LoopCategory.PLAIN,
                LoopCategory.ATOMIC_OTHER,
            ):
                self._planner.submit(_cost_only(spec))  # counted at region close
            elif self._cross_region and category in (
                LoopCategory.PLAIN,
                LoopCategory.ATOMIC_OTHER,
            ):
                is_pack = "mpi_pack" in spec.tags
                if self._window and self._window_pack is not is_pack:
                    self._flush_window()  # keep MPI_PACK groups homogeneous
                self._window.append(_cost_only(spec))
                self._window_pack = is_pack
            else:
                self._flush_region()
                self._flush_window()
                self._acc.charge_single(spec)
                self._count_launch(category)
        elif backend in (Backend.DC, Backend.DC2X):
            assert self._dc is not None
            self._flush_region()
            self._flush_window()
            self._count_launch(category)
            if category is LoopCategory.KERNELS_REGION:
                # Code 5's rewrite: the intrinsic becomes an explicit DC
                # (reduction) loop with the same data traffic -- a different
                # kernel, priced under its own name.
                spec = KernelSpec(
                    name=spec.name + "_expanded",
                    category=LoopCategory.SCALAR_REDUCTION,
                    reads=spec.reads,
                    writes=spec.writes,
                    flops_per_byte=spec.flops_per_byte,
                    work_fraction=spec.work_fraction,
                    bytes_override=spec.bytes_override,
                    tags=spec.tags,
                )
            self._dc.charge_single(spec)
        else:
            raise ValueError(f"backend {backend} cannot run GPU loops")
        return result

    def _price_cpu(self, spec: KernelSpec) -> PricedLaunch:
        """What ``spec`` costs on the CPU nodes (no launch gap, no
        residency); derived once per kernel like the GPU engines' prices."""
        assert self.cpu_model is not None
        entries = self._cpu_memo.entries(self.env.epoch, None)
        key = spec.cost_key
        priced = entries.get(key)
        if priced is None:
            nbytes = self.cost.bytes_moved(spec, self.env)
            # bytes are already rank-local, so only the multi-node locality
            # boost (speedup/n) applies on top of the single-node roofline.
            boost = self.cpu_model.speedup(self.num_ranks) / self.num_ranks
            priced = entries[key] = priced_launch(
                spec,
                (),
                body_seconds=self.cpu_model.kernel_time(nbytes) / boost * self.cost.body_scale,
                gap_seconds=0.0,
                nbytes=nbytes,
            )
        return priced

    def _charge_cpu(self, spec: KernelSpec) -> None:
        priced = self._price_cpu(spec)
        self.clock.advance(priced.body_seconds, priced.body_category, priced.label)
        touch_and_observe(priced, self.clock, self.env)
        self._cpu_stats.kernels += 1
        self._cpu_stats.launches += 1

    # -- manual data directives (used by MPI layer and setup code) -----------

    def update_host(self, name: str, fraction: float = 1.0) -> None:
        """Charge an ``!$acc update host`` transfer."""
        self._flush_window()
        if self._shadow is not None:
            self._shadow.sync()  # update synchronizes outstanding queues
        if self.env.mode is DataMode.MANUAL:
            for c in self.env.update_host(name, fraction):
                self.clock.advance(c.seconds, c.category, c.label)

    def update_device(self, name: str, fraction: float = 1.0) -> None:
        """Charge an ``!$acc update device`` transfer."""
        self._flush_window()
        if self._shadow is not None:
            self._shadow.sync()
        if self.env.mode is DataMode.MANUAL:
            for c in self.env.update_device(name, fraction):
                self.clock.advance(c.seconds, c.category, c.label)

    def host_access(self, name: str, nbytes: float | None = None,
                    category: TimeCategory = TimeCategory.UM_FAULT) -> None:
        """Host-side touch (MPI library or setup code) with UM migration."""
        self._flush_window()
        if self._shadow is not None:
            self._shadow.sync()
        for c in self.env.host_access(name, nbytes):
            self.clock.advance(c.seconds, category, c.label)
