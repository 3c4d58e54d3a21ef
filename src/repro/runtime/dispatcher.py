"""Per-rank runtime facade: routes loops to engines per code version.

`repro.mas` is written against this API the way MAS is written against
OpenACC/DC: it declares loops by category (`loop`, `scalar_reduction`,
`array_reduction`, `kernels_region`, `routine_loop`, `atomic_loop`) and
wraps fusable sequences in ``region()``. The active
:class:`~repro.runtime.config.RuntimeConfig` decides what actually happens,
mirroring how the six code versions differ only in directives/flags, not in
physics.

A launch runs its body, then goes to the engine its category's backend
resolved to at construction (:class:`~repro.runtime.engine.Engine`: CPU,
OpenACC or DC), either at once or through the one pending-launch buffer:
OpenACC loops inside a region, and between synchronization points with
cross-region fusion, wait there and launch as one fusion plan when the
region closes or anything else needs the device in order. A launch charged
at once is *lowered* (``_lower``: engine, held price, counted category) and
*charged* (``_charge``).

Numerical bodies always execute eagerly at submission, so results are
bit-identical across code versions (the paper validated all versions
against the original "to within solver tolerances"; we validate to
bit-equality). Only *cost* is affected by fusion/async/UM.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Iterator

from repro.machine.cpu import CpuNodeModel
from repro.machine.gpu import GpuDevice
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import Backend, RuntimeConfig
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.doconcurrent import check_supported
from repro.runtime.engine import Engine, LaunchStats
from repro.runtime.fusion import plan_fusion, plan_fusion_window, validate_plan
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.pricing import PricedLaunch
from repro.runtime.stream import AsyncQueue

#: The loop categories an OpenACC parallel region can fuse.
_FUSABLE = (LoopCategory.PLAIN, LoopCategory.ATOMIC_OTHER)

#: A launch lowered for one rank: the engine that charges it, its price,
#: and the loop category ``kernel_launches_total`` counts it under.
Lowered = tuple[Engine, PricedLaunch, LoopCategory]


def _respec(spec: KernelSpec, name: str, category: LoopCategory, body: Any) -> KernelSpec:
    """``spec`` under another name, category or body."""
    return KernelSpec(
        name=name,
        category=category,
        reads=spec.reads,
        writes=spec.writes,
        flops_per_byte=spec.flops_per_byte,
        work_fraction=spec.work_fraction,
        bytes_override=spec.bytes_override,
        body=body,
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
        self.queue = queue or AsyncQueue()
        #: What the engines price on: the rank's CPU node or its GPU.
        self.machine: CpuNodeModel | GpuDevice
        if config.target == "cpu":
            if cpu_model is None:
                raise ValueError("CPU configs need a cpu_model")
            self.machine = cpu_model
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
            self.machine = gpu
            self.env = env
        self._working_set = 0.0
        engine = partial(
            Engine,
            clock=self.clock,
            env=self.env,
            cost=cost or KernelCostModel(),
            queue=self.queue,
            array_reduction=config.array_reduction,
            version=config.name,
        )
        #: One engine class, three backends: CPU loops run at the node's
        #: roofline; OpenACC loops launch async and fuse; DC loops launch
        #: one by one, synchronously, and only if nvfortran would compile them.
        self._acc: Engine | None = None
        self._dc: Engine | None = None
        if config.target == "cpu":
            cpu = engine(machine=self.machine, num_ranks=num_ranks)
            self._engines: tuple[Engine, ...] = (cpu,)
            by_backend = {Backend.CPU: cpu}
            backends = {category: Backend.CPU for category in LoopCategory}
        else:
            self._acc = engine(machine=self.machine, async_launch=config.async_launch)
            self._dc = engine(
                machine=self.machine,
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
            by_backend = {Backend.ACC: self._acc, Backend.DC: self._dc, Backend.DC2X: self._dc}
            backends = config.loop_backend
        #: The engine each loop category launches on; a category missing
        #: here is refused when a loop of it is launched.
        self._engine_for = {
            category: by_backend[b] for category, b in backends.items() if b in by_backend
        }
        fuses = backends.get(LoopCategory.PLAIN) is Backend.ACC
        #: Categories whose launches wait in ``_pending`` inside a region
        #: (and, with cross-region fusion, between synchronization points).
        self._bufferable = tuple(
            c for c in _FUSABLE if fuses and backends.get(c) is Backend.ACC
        )
        self._cross_region = config.cross_region_fusion and config.fusion and fuses
        self._in_region = False
        #: The categories ``_pending`` takes right now: the bufferable ones
        #: inside a region, and outside one with cross-region fusion.
        self._holding = self._bufferable if self._cross_region else ()
        #: Body-less launches not yet charged: a region's, or (outside one)
        #: the cross-region window's, all MPI_PACK kernels or none.
        self._pending: list[KernelSpec] = []
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
        self.register_arrays([(name, nominal_bytes, data)])

    def register_arrays(self, arrays: list[tuple]) -> None:
        """Register ``(name, nominal bytes[, data])`` arrays in order, each
        placed on device as it comes (manual mode), then set the working set
        the engines price on once: nothing is priced in between."""
        env, clock = self.env, self.clock
        register, enter_data = env.register, env.enter_data
        manual = env.mode is DataMode.MANUAL
        try:
            for array in arrays:
                register(*array)
                if manual:
                    for c in enter_data(array[0]):
                        clock.advance(c.seconds, c.category, c.label)
        finally:
            # an exact integer total, so the float is the one a full re-sum gives
            self._working_set = float(env.total_nominal_bytes)
            for engine in self._engines:
                engine.working_set_bytes = self._working_set

    @property
    def working_set_bytes(self) -> float:
        """Total nominal bytes of registered arrays (locality-model input)."""
        return self._working_set

    # -- stats ---------------------------------------------------------------

    @property
    def stats(self) -> LaunchStats:
        """Launch counters summed over the engines."""
        total = LaunchStats()
        for engine in self._engines:
            total.merge(engine.stats)
        return total

    @property
    def priced_kernels(self) -> int:
        """Distinct kernels whose price is currently held: bounded by the
        model's kernel vocabulary, not by how long it runs."""
        return sum(e.priced_kernels for e in self._engines)

    # -- the pending-launch buffer -------------------------------------------

    @contextmanager
    def region(self) -> Iterator[None]:
        """A fusable sequence of loops (an OpenACC parallel region).

        Transparent for DC and CPU backends: each loop inside is its own
        kernel. Regions do not nest, under any backend.
        """
        if self._in_region:
            raise RuntimeError("nested parallel regions are not supported")
        self._flush()
        self._in_region, self._holding = True, self._bufferable
        try:
            yield
        finally:
            try:
                self._flush()
            finally:
                self._in_region = False
                self._holding = self._bufferable if self._cross_region else ()

    def _flush(self) -> None:
        """Launch the pending loops: a region's as its consecutive fusion
        plan, a window's as the hoisting plan, checked against the
        dependence core."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self._in_region:
            groups = plan_fusion(pending, enabled=self.config.fusion)
        else:
            groups = plan_fusion_window(pending)
            problems = validate_plan(pending, groups)
            if problems:  # pragma: no cover - planner bug guard
                raise RuntimeError(
                    "cross-region fusion plan violates dependences: "
                    + "; ".join(problems)
                )
        assert self._acc is not None
        self._acc.charge_region(groups)

    def sync(self) -> None:
        """Synchronization point: launch all buffered work on this rank.

        Called by the MPI layer (barriers, collectives, halo exchanges)
        and at step boundaries before reading the clock; everything that
        observes simulated time must drain the pending launches first.
        """
        self._flush()

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
            spec = _respec(spec, spec.name, category, spec.body)
        if self._shadow is not None:
            self._shadow.on_launch(
                spec, self.env, async_launch=self.config.async_launch
            )
            result = self._shadow.run_body(spec, self.env)
        else:
            result = spec.run_body()
        # The body has run; from here on only cost is accounted.
        if category in self._holding:
            if (
                self._pending
                and not self._in_region
                and ("mpi_pack" in self._pending[-1].tags) is not ("mpi_pack" in spec.tags)
            ):
                self._flush()  # keep a window's MPI_PACK groups homogeneous
            # body-less, so a pending launch holds nothing its body captured
            self._pending.append(
                spec if spec.body is None else _respec(spec, spec.name, category, None)
            )
            return result
        self._charge(self._lower(spec, category))
        return result

    def _lower(self, spec: KernelSpec, category: LoopCategory) -> Lowered:
        """What launching ``spec`` (of ``category``) on its own charges.

        Refuses a category this config cannot run. Under Code 5's rewrite a
        kernels region on the DC engine is priced as an explicit DC
        (reduction) loop with the same data traffic: a different kernel,
        under its own name, still counted as a kernels region. The price
        stays valid while the data environment's epoch and the working set
        stand still (:class:`~repro.runtime.pricing.PriceMemo`).
        """
        engine = self._engine_for.get(category)
        if engine is None:
            raise ValueError(
                f"config {self.config.name!r} cannot run "
                f"{self.config.backend_for(category).value} loops on {self.config.target}"
            )
        if category is LoopCategory.KERNELS_REGION and engine is self._dc:
            spec = _respec(spec, spec.name + "_expanded", LoopCategory.SCALAR_REDUCTION, None)
        return engine, engine.price(spec), category

    def _direct(self, category: LoopCategory) -> bool:
        """Whether a launch of ``category`` would be charged at once: the
        pending buffer would not take it and no shadow checker has to see
        it (the halo walk records or plays only then)."""
        return self._shadow is None and category not in self._holding

    def _charge(self, lowered: Lowered) -> None:
        """Charge a lowered launch, after what is pending."""
        if self._pending:
            self._flush()
        engine, priced, category = lowered
        engine.charge(priced, category)

    # -- manual data directives (used by MPI layer and setup code) -----------

    def _directive(self, what: str) -> None:
        """What precedes every data directive: refused inside a region,
        it launches what is pending and syncs the shadow checker's queues."""
        if self._in_region:
            raise ValueError(
                f"{what} inside a parallel region: OpenACC allows no data "
                "directive in a compute construct"
            )
        self._flush()
        if self._shadow is not None:
            self._shadow.sync()  # a directive synchronizes outstanding queues

    def update_host(self, name: str, fraction: float = 1.0) -> None:
        """Charge an ``!$acc update host`` transfer."""
        self._directive("update_host")
        if self.env.mode is DataMode.MANUAL:
            for c in self.env.update_host(name, fraction):
                self.clock.advance(c.seconds, c.category, c.label)

    def update_device(self, name: str, fraction: float = 1.0) -> None:
        """Charge an ``!$acc update device`` transfer."""
        self._directive("update_device")
        if self.env.mode is DataMode.MANUAL:
            for c in self.env.update_device(name, fraction):
                self.clock.advance(c.seconds, c.category, c.label)

    def host_access(self, name: str, nbytes: float | None = None,
                    category: TimeCategory = TimeCategory.UM_FAULT) -> None:
        """Host-side touch (MPI library or setup code) with UM migration."""
        self._directive("host_access")
        for c in self.env.host_access(name, nbytes):
            self.clock.advance(c.seconds, category, c.label)
