"""The runtime side of a model: everything a step is priced on.

A :class:`~repro.mas.model.MasModel` is physics driving a
:class:`RuntimeSide`: the rank runtimes, the transport and reduce link
between them, the halo exchanger, the registered arrays, the telemetry
binding and the per-step :class:`StepTiming` deltas.  The side holds no grid,
state or body and never refers to a model, so a recorded
:class:`~repro.mas.plan.StepPlan` can drive a fresh one with no physics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, ContextManager

import numpy as np

from repro.machine.cluster import GpuCluster
from repro.machine.cpu import CpuNodeModel, EPYC_7742_NODE
from repro.machine.interconnect import SLINGSHOT
from repro.machine.node import GpuNode, make_delta_node
from repro.mas.state import ALL_FIELDS, STAGGER_AXES
from repro.mpi.collectives import allreduce_many_finish
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import HaloExchanger
from repro.mpi.transport import TransportKind, make_transport
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import TimeCategory
from repro.runtime.config import RuntimeConfig
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec
from repro.runtime.launch import bind_devices, devices_for_binding
from repro.runtime.stream import AsyncQueue

if TYPE_CHECKING:
    from repro.mas.model import ModelConfig

#: Work arrays every rank registers besides the 8 state fields.
WORK_ARRAYS = (
    "wrk_pres", "wrk_divv",
    "wrk_adv_r", "wrk_adv_t", "wrk_adv_p",
    "wrk_lor_r", "wrk_lor_t", "wrk_lor_p",
    "pcg_r", "pcg_z", "pcg_p", "pcg_ap", "pcg_diag",
    "pcg_s", "pcg_q", "pcg_az",
    "sts_y", "sts_l",
    "emf_r", "emf_t", "emf_p",
    "heat", "diag_flux",
)


@dataclass(slots=True)
class StepTiming:
    """Simulated-time accounting for one step (deltas, max over ranks for
    wall, mean over ranks for the MPI split as in Fig. 3)."""

    dt: float
    wall: float
    mpi: float
    compute: float
    launches: int


class RuntimeSide:
    """The rank runtimes of one code version and what connects them."""

    def __init__(
        self,
        config: "ModelConfig",
        runtime_config: RuntimeConfig,
        *,
        node: GpuNode | None = None,
        cluster: "GpuCluster | None" = None,
        cpu_model: CpuNodeModel | None = None,
        cost: KernelCostModel | None = None,
        queue: AsyncQueue | None = None,
        um_host_mpi_overhead: float = 30e-6,
        um_page_amplification: float = 8.0,
        halo_pack_inefficiency: float = 1.0,
        halo_buffer_init_fraction: float = 0.0,
        rank_jitter: float = 0.015,
    ) -> None:
        self.config = config
        self.rt_config = runtime_config
        #: The two facts of the code version that change what a model
        #: *emits* (everything else only changes what an emission costs):
        #: overlapped halo exchanges and non-blocking fused reductions, each
        #: requested by the model config AND supported by the runtime (codes
        #: without async queues degrade to the bulk-synchronous forms).
        self.halo_overlap = config.halo_overlap and runtime_config.supports_halo_overlap
        self.pipelined_reductions = (
            config.pcg_variant == "pipelined"
            and runtime_config.supports_pipelined_reductions
        )
        n = config.num_ranks
        self.decomp = Decomposition3D(config.shape, n)
        self.nominal_decomp = Decomposition3D(
            config.nominal_shape, n, dims=self.decomp.dims
        )
        base_cost = cost or KernelCostModel()
        queue = queue or AsyncQueue()

        def rank(r: int, **hardware: Any) -> RankRuntime:
            cost = replace(base_cost, body_scale=1.0 + rank_jitter * r / max(1, n - 1))
            return RankRuntime(
                runtime_config, num_ranks=n, cost=cost, queue=queue, **hardware
            )

        self.rank_nodes: list[int] | None = None
        if runtime_config.target == "gpu":
            if cluster is not None:
                # multi-node run: node-major placement, fabric across nodes
                self.node = cluster.nodes[0]
                self.rank_nodes = cluster.rank_node_map(n)
                devices = [cluster.device_of(r) for r in range(n)]
            else:
                self.node = node or make_delta_node()
                binding = bind_devices(self.node, n, runtime_config.device_binding)
                devices = devices_for_binding(self.node, binding)
            mode = DataMode.UNIFIED if runtime_config.unified_memory else DataMode.MANUAL
            self.ranks = [
                rank(
                    r,
                    env=DataEnvironment(
                        mode,
                        device_memory=device.memory,
                        host_link=self.node.interconnect.host,
                    ),
                    gpu=device,
                )
                for r, device in enumerate(devices)
            ]
            kind = (
                TransportKind.UM_STAGED
                if runtime_config.unified_memory
                else TransportKind.CUDA_AWARE_P2P
            )
            self.transport = make_transport(
                kind,
                interconnect=self.node.interconnect,
                host_mpi_overhead=um_host_mpi_overhead,
                page_amplification=um_page_amplification,
            )
            self.reduce_link = (
                self.node.interconnect.host
                if runtime_config.unified_memory
                else self.node.interconnect.peer
            )
        else:
            self.node = None
            cpu = cpu_model or CpuNodeModel(EPYC_7742_NODE)
            self.ranks = [rank(r, cpu_model=cpu) for r in range(n)]
            self.transport = make_transport(TransportKind.CPU_FABRIC, fabric=SLINGSHOT)
            self.reduce_link = SLINGSHOT
        self.halo = HaloExchanger(
            self.decomp,
            self.transport,
            self.ranks,
            nominal_decomp=self.nominal_decomp,
            pack_inefficiency=halo_pack_inefficiency,
            buffer_init_fraction=halo_buffer_init_fraction,
            rank_nodes=self.rank_nodes,
            # Batched runs move every member's ghost layer in the SAME
            # message: payloads widen B-fold, message COUNT is unchanged.
            element_bytes=8 * config.ensemble_size,
        )
        self.tel_prefix = ""
        self._step_start: tuple | None = None

    # ------------------------------------------------------------------ setup

    def _nominal_bytes(self, rank: int, staggered_axis: int | None = None) -> int:
        shape = list(self.nominal_decomp.local_shape(rank))
        if staggered_axis is not None:
            shape[staggered_axis] += 1
        cells = shape[0] * shape[1] * shape[2]
        # Ensemble runs: one registered array holds all B members, so its
        # nominal footprint (and thus every kernel's byte cost) scales by
        # B while the LAUNCH count stays that of a scalar run -- the
        # per-member amortization the batching buys.
        return cells * 8 * self.config.ensemble_size

    def model_arrays(self) -> tuple[str, ...]:
        """The arrays :meth:`register_arrays` registers on every rank."""
        aux = (f"model_aux_{i}" for i in range(self.config.extra_model_arrays))
        return (*ALL_FIELDS, *WORK_ARRAYS, *aux)

    def register_arrays(self, states: list | None = None) -> None:
        """Register every rank's model arrays (``states`` lends the state
        fields' data to the shadow checker; pricing needs none), then bind
        to the active telemetry session (a no-op by default): the session
        profiler attaches to the rank clocks, the span tracer reads their
        simulated time, the run manifest records the configuration.

        Code 6's wrapper create+init routines add one init kernel per array
        the original code never zeroed (SIV-F), each priced against the
        working set registered so far, so they are issued here.
        """
        cfg = self.rt_config
        names = self.model_arrays()
        for r, rt in enumerate(self.ranks):
            sizes = {axis: self._nominal_bytes(r, axis) for axis in (None, 0, 1, 2)}
            arrays = [
                (name, sizes[STAGGER_AXES.get(name)],
                 states[r].get(name) if states and name in ALL_FIELDS else None)
                for name in names
            ]
            start = 0
            if cfg.wrapper_init_kernels:
                for i, (name, _, _) in enumerate(arrays):
                    if not name.startswith("model_aux_"):
                        rt.register_arrays(arrays[start:i + 1])
                        rt.loop(KernelSpec(f"wrapper_init_{name}", writes=(name,)))
                        start = i + 1
            rt.register_arrays(arrays[start:])
            if cfg.unified_memory and cfg.duplicate_cpu_routines:
                # Codes with duplicate CPU-only setup routines pre-touch the
                # state on the device before the time loop, hiding the
                # first-touch faults in setup rather than step one.
                for name in ALL_FIELDS:
                    for c in rt.env.prepare_kernel(
                        KernelSpec("setup_touch", reads=(name,))
                    ):
                        rt.clock.advance(c.seconds, TimeCategory.HOST, c.label)
        self.tel_prefix = _telemetry().bind_model(self)

    # ------------------------------------------------------- what a model emits

    def wrapper_inits(self) -> None:
        """Code 6's wrapper create+init routines zero every temporary on
        creation, adding initialization kernels per step that the original
        code did not have -- the paper's explanation for Code 6 trailing
        Code 2 slightly (SV-C). Other versions issue nothing."""
        if self.rt_config.wrapper_init_kernels:
            for rt in self.ranks:
                with rt.region():
                    for name in WORK_ARRAYS:
                        rt.loop(KernelSpec(f"wrapper_zero_{name}", writes=(name,)))

    def span(self, name: str, **attrs: Any) -> ContextManager:
        """A span of the active telemetry session."""
        return _telemetry().tracer.span(name, **attrs)

    def phase(self, name: str, **attrs: Any) -> ContextManager:
        """The span around set-up or one step, tagged with this model's
        lane prefix."""
        return _telemetry().tracer.span(name, **attrs, model=self.tel_prefix)

    def allreduce(self, collective: Callable, locals_: list) -> Any:
        """One :mod:`repro.mpi.collectives` function (named by the caller, so
        it is looked up at call time in the caller's module) over per-rank
        partials, eight bytes per value each rank contributes."""
        return collective(
            self.ranks, locals_, self.reduce_link,
            nbytes=8 * np.size(locals_[0]), unified_memory=self.rt_config.unified_memory,
        )

    def allreduce_finish(self, pending: Any) -> np.ndarray:
        """Complete what ``allreduce(allreduce_many_begin, ...)`` posted."""
        return allreduce_many_finish(pending)

    # ------------------------------------------------------------- step timing

    def begin_step(self) -> None:
        """Drain every rank and note where its clock stands."""
        for rt in self.ranks:
            rt.sync()
        ranks = self.ranks
        self._step_start = (
            [rt.clock.now for rt in ranks],
            [rt.clock.mpi_time for rt in ranks],
            [rt.clock.by_category.get(TimeCategory.COMPUTE, 0.0) for rt in ranks],
            sum(rt.stats.launches for rt in ranks),
            [dict(rt.clock.by_category) for rt in ranks]
            if _telemetry().enabled else None,
        )

    def end_step(
        self, step: int, dt: float, sim_time: float, active_members: int | None = None
    ) -> StepTiming:
        """Step ``step``'s deltas since :meth:`begin_step`, also reported to
        telemetry.  ``dt`` and ``sim_time`` are the smallest over members;
        ``active_members`` is given by ensemble runs only."""
        if self._step_start is None:
            raise ValueError("end_step() without begin_step()")
        t0, mpi0, comp0, launches0, cat0 = self._step_start
        self._step_start = None
        for rt in self.ranks:
            rt.sync()
        wall = max(rt.clock.now - t for rt, t in zip(self.ranks, t0))
        mpi = float(
            np.mean([rt.clock.mpi_time - m for rt, m in zip(self.ranks, mpi0)])
        )
        comp = float(
            np.mean(
                [
                    rt.clock.by_category.get(TimeCategory.COMPUTE, 0.0) - c
                    for rt, c in zip(self.ranks, comp0)
                ]
            )
        )
        launches = sum(rt.stats.launches for rt in self.ranks) - launches0
        timing = StepTiming(dt=dt, wall=wall, mpi=mpi, compute=comp, launches=launches)
        tel = _telemetry()
        if not tel.enabled or cat0 is None:
            return timing
        # per-step metrics and one structured JSONL record
        n = len(self.ranks)
        categories: dict[str, float] = {}
        for r, rt in enumerate(self.ranks):
            for cat, t in rt.clock.by_category.items():
                delta = t - cat0[r].get(cat, 0.0)
                categories[cat.value] = categories.get(cat.value, 0.0) + delta / n
        tel.metrics.counter("steps_total", "model steps completed").inc()
        tel.metrics.histogram(
            "step_seconds", "simulated wall seconds per step (max over ranks)"
        ).observe(timing.wall)
        tel.metrics.gauge("sim_dt", "last CFL timestep (simulation units)").set(
            timing.dt
        )
        tel.metrics.gauge("sim_time", "simulated physical time").set(sim_time)
        extra: dict = {}
        if active_members is not None:
            nb = self.config.ensemble_size
            tel.metrics.gauge(
                "ensemble_members", "ensemble batch size B"
            ).set(float(nb))
            tel.metrics.gauge(
                "ensemble_members_active",
                "members not frozen by a PCG rho-breakdown",
            ).set(float(active_members))
            extra = {"ensemble_members": nb, "ensemble_members_active": active_members}
        tel.logger.log(
            "step",
            step=step,
            dt=float(timing.dt),
            wall=float(timing.wall),
            mpi=float(timing.mpi),
            compute=float(timing.compute),
            launches=int(timing.launches),
            sim_time=sim_time,
            categories=categories,
            **extra,
        )
        tel.maybe_snapshot_metrics()
        return timing

    def wall_time(self) -> float:
        """Simulated wall-clock so far (max over ranks)."""
        for rt in self.ranks:
            rt.sync()
        return max(rt.clock.now for rt in self.ranks)
