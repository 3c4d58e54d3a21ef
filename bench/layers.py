"""Which public callables of each layer are traced, and how their spans
and return values fold into the per-layer metrics.

Layers are the ``repro`` module names. Times are self times from
:func:`bench.tracer.fold`; counts are read from public attributes of the
objects the wrapped callables received or returned (a constructed
``MasModel``, a ``StepTiming``, a ``PcgResult``, ...), never from
private state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from bench.tracer import Tracer, fold, self_times

ROOT_KEY = "bench.harness"

#: Per-layer metrics on the simulated clock: no host time in them, so they
#: repeat between runs and are never corrected for host speed.
SIMULATED = ("machine.sim_", "machine.um_", "mpi.halo.bytes", "experiments.paper_error_pct")

#: The machine model's pricing primitives are a few arithmetic operations
#: called up to 15,000 times per step, and most of a step's 2,000 ``sync``
#: calls find nothing buffered: one call in this many is spanned (a prime,
#: so the sample does not lock onto the per-kernel call pattern).
SAMPLE = 17

_PCG_SOLVERS = (
    "pcg_solve", "pcg_solve_ca", "pcg_solve_pipelined",
    "pcg_solve_batched", "pcg_solve_ca_batched", "pcg_solve_pipelined_batched",
)
_DISPATCH = (
    "loop", "scalar_reduction", "array_reduction", "atomic_loop",
    "kernels_region", "routine_loop",
)
_DATA = ("register_array", "update_host", "update_device", "host_access")
_HALO = (
    "exchange", "exchange_many", "exchange_begin", "exchange_begin_many",
    "exchange_finish", "ensure_buffers",
)
_COLLECTIVES = (
    "allreduce_sum", "allreduce_min", "allreduce_max", "allreduce_many",
    "allreduce_many_begin", "allreduce_many_finish", "barrier",
)


@dataclass
class Captured:
    """Objects seen at the traced boundaries of one round."""

    models: list[Any] = field(default_factory=list)
    step_timings: list[Any] = field(default_factory=list)
    pcg_iterations: int = 0
    frontends: list[Any] = field(default_factory=list)
    lint_findings: list[int] = field(default_factory=list)
    interproc: list[Any] = field(default_factory=list)
    ports: list[Any] = field(default_factory=list)

    def add_pcg(self, result: Any, _args: tuple) -> None:
        # PcgResult.iterations is an int, PcgBatchResult.iterations a (B,)
        # array of per-member counts: both sum to member-iterations.
        self.pcg_iterations += int(sum(_as_list(result.iterations)))


def _as_list(value: Any) -> list:
    return list(value) if hasattr(value, "__iter__") else [value]


def install(tracer: Tracer, seen: Captured) -> None:
    """Patch every traced callable that the imported program defines.

    Only modules the workload already imported are touched, so a traced
    round never pays (or hides) an import the untraced rounds did not.
    """
    import sys

    def mod(name: str) -> Any:
        return sys.modules.get(name)

    if (m := mod("repro.mas.model")) is not None:
        tracer.patch(m.MasModel, "__init__", "mas.init",
                     capture=lambda _r, args: seen.models.append(args[0]))
        tracer.patch(m.MasModel, "step", "mas.step",
                     capture=lambda r, _a: seen.step_timings.append(r))
        pcg = mod("repro.mas.pcg")
        for name in _PCG_SOLVERS:
            tracer.patch(pcg, name, "mas.pcg", capture=seen.add_pcg)
    if (m := mod("repro.runtime.kernel")) is not None:
        # The engines call run_body again on body-less cost-only copies.
        tracer.patch(m.KernelSpec, "run_body", "mas.kernel_body",
                     skip=lambda args: args[0].body is None)
    if (m := mod("repro.runtime.dispatcher")) is not None:
        for name in _DISPATCH:
            tracer.patch(m.RankRuntime, name, "runtime.dispatch")
        tracer.patch(m.RankRuntime, "sync", "runtime.dispatch", sample=SAMPLE)
        tracer.patch(m.RankRuntime, "region", "runtime.dispatch", context=True)
        for name in _DATA:
            tracer.patch(m.RankRuntime, name, "runtime.data")
    if (m := mod("repro.machine")) is not None:
        leaf = dict(sample=SAMPLE)
        tracer.patch(m.GpuDevice, "kernel_device_time", "machine", **leaf)
        tracer.patch(m.UnifiedMemoryManager, "touch_device", "machine", **leaf)
        tracer.patch(m.UnifiedMemoryManager, "touch_host", "machine", **leaf)
        tracer.patch(m.DeviceMemory, "allocate", "machine", **leaf)
        for name in ("p2p_time", "h2d_time", "d2h_time", "staged_time"):
            tracer.patch(m.Interconnect, name, "machine", **leaf)
    if (m := mod("repro.mpi.halo")) is not None:
        for name in _HALO:
            tracer.patch(m.HaloExchanger, name, "mpi.halo")
    if (m := mod("repro.mpi.collectives")) is not None:
        for name in _COLLECTIVES:
            tracer.patch(m, name, "mpi.collectives")
    if (m := mod("repro.obs.telemetry")) is not None:
        tracer.patch(m, "session", "obs.session", context=True)
    if (m := mod("repro.obs.summary")) is not None:
        tracer.patch(m, "summarize_dir", "obs.summary")
    if (m := mod("repro.obs.critpath")) is not None:
        tracer.patch(m, "analyze_dir", "obs.critpath")
    if (m := mod("repro.perf.calibration")) is not None:
        tracer.patch(m, "build_model", "perf.build_model")
    if (m := mod("repro.perf.breakdown")) is not None:
        tracer.patch(m, "measure_breakdown", "perf.breakdown")
    if (m := mod("repro.experiments.fig2")) is not None:
        tracer.patch(m, "run_fig2", "experiments.fig2")
    if (m := mod("repro.fortran.codebase")) is not None:
        tracer.patch(m, "generate_mas_codebase", "fortran.generate")
    if (m := mod("repro.fortran.frontend.lower")) is not None:
        tracer.patch(m, "load_external_tree", "fortran.frontend",
                     capture=lambda r, _a: seen.frontends.append(r))
    if (m := mod("repro.fortran.pipeline")) is not None:
        tracer.patch(m, "build_version", "fortran.pipeline")
    if (m := mod("repro.analysis.fortran_lint")) is not None:
        tracer.patch(m, "analyze_codebase", "analysis.lint",
                     capture=lambda r, _a: seen.lint_findings.append(len(r)))
    if (m := mod("repro.analysis.interproc")) is not None:
        tracer.patch(m, "summarize", "analysis.interproc",
                     capture=lambda r, _a: seen.interproc.append(r))
    if (m := mod("repro.analysis.port")) is not None:
        tracer.patch(m, "port_codebase", "analysis.port",
                     capture=lambda r, _a: seen.ports.append(r))


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def metrics(tracer: Tracer, seen: Captured) -> dict[str, float]:
    """Per-layer metrics of one traced round; absent layers are omitted."""
    spans = tracer.spans
    folded = fold(spans, tracer.keys, tracer.weights, tracer.calls)
    out: dict[str, float] = {}

    def timed(key: str, *, calls: bool = True) -> float:
        self_s, n = folded.get(key, (0.0, 0))
        if n:
            out[f"{key}.self_s"] = self_s
            if calls:
                out[f"{key}.calls"] = n
        return self_s

    # -- mas -----------------------------------------------------------------
    step_s = timed("mas.step")
    timed("mas.init", calls=False)
    body_s = timed("mas.kernel_body")
    pcg_s = timed("mas.pcg")
    if seen.models:
        out["mas.pcg.iterations"] = seen.pcg_iterations
        updates = sum(
            m.steps_taken * math.prod(m.config.shape) * m.config.ensemble_size
            for m in seen.models
        )
        out["mas.cell_updates"] = updates
        if (v := _ratio((step_s + body_s + pcg_s) * 1e6, updates)) is not None:
            out["mas.us_per_cell_update"] = v

    # -- runtime -------------------------------------------------------------
    dispatch_s = timed("runtime.dispatch")
    timed("runtime.data")
    if seen.models:
        stats = [rt.stats for m in seen.models for rt in m.ranks]
        launches = sum(s.launches for s in stats)
        out["runtime.launches"] = launches
        out["runtime.kernels"] = sum(s.kernels for s in stats)
        out["runtime.fused_away"] = sum(s.fused_away for s in stats)
        if (v := _ratio(dispatch_s * 1e6, launches)) is not None:
            out["runtime.us_per_launch"] = v

    # -- machine (host time of the pricing model; the rest is simulated) -----
    timed("machine")
    if seen.step_timings:
        wall = sum(t.wall for t in seen.step_timings)
        out["machine.sim_step_ms"] = wall / len(seen.step_timings) * 1e3
        out["machine.sim_mpi_share"] = sum(t.mpi for t in seen.step_timings) / wall
    if seen.models:
        ums = [rt.env.um.stats for m in seen.models for rt in m.ranks
               if getattr(rt.env, "um", None) is not None]
        out["machine.um_faults"] = sum(s.total_faults for s in ums)
        out["machine.um_bytes"] = sum(s.total_bytes for s in ums)

    # -- mpi -----------------------------------------------------------------
    halo_s = timed("mpi.halo")
    pack_s = timed("mpi.pack_body", calls=False)
    timed("mpi.collectives")
    if seen.models:
        messages = sum(m.halo.messages for m in seen.models)
        out["mpi.halo.messages"] = messages
        out["mpi.halo.bytes"] = sum(m.halo.bytes_sent for m in seen.models)
        if (v := _ratio((halo_s + pack_s) * 1e6, messages)) is not None:
            out["mpi.us_per_message"] = v

    # -- obs -----------------------------------------------------------------
    timed("obs.session", calls=False)
    timed("obs.summary", calls=False)
    timed("obs.critpath", calls=False)
    exits = {n for n, name in enumerate(tracer.names) if name.endswith("session.exit")}
    finalizes = [spans.duration(i) for i, n in enumerate(spans.name_id) if n in exits]
    if finalizes:  # finalize runs when the session exits
        out["obs.finalize_s"] = sum(finalizes)

    # -- perf, experiments ---------------------------------------------------
    timed("perf.build_model", calls=False)
    timed("perf.breakdown")
    timed("experiments.fig2", calls=False)

    # -- fortran -------------------------------------------------------------
    timed("fortran.generate", calls=False)
    front_s = timed("fortran.frontend", calls=False)
    if seen.frontends:
        lines = sum(f.census.total_lines for f in seen.frontends)
        out["fortran.frontend.lines"] = lines
        out["fortran.frontend.opaque_lines"] = sum(
            f.census.opaque_lines for f in seen.frontends
        )
        if (v := _ratio(front_s * 1e6, lines)) is not None:
            out["fortran.frontend.us_per_line"] = v
    timed("fortran.pipeline")

    # -- analysis ------------------------------------------------------------
    lint_s = timed("analysis.lint", calls=False)
    interproc_s = timed("analysis.interproc", calls=False)
    lint_ids = {n for n, key in enumerate(tracer.keys) if key == "analysis.lint"}
    lint_spans = [spans.duration(i) for i, n in enumerate(spans.name_id) if n in lint_ids]
    if len(lint_spans) >= 2:
        # The workload lints the same tree twice: cold cache, then warm.
        cold, warm = lint_spans[0], lint_spans[1]
        out["analysis.lint.cold_s"] = cold
        out["analysis.lint.warm_s"] = warm
        out["analysis.lint.warm_over_cold"] = warm / cold
        out["analysis.lint.findings"] = sum(seen.lint_findings)
        if seen.frontends:
            lines = seen.frontends[0].census.total_lines * len(lint_spans)
            out["analysis.lint.us_per_line"] = (lint_s + interproc_s) * 1e6 / lines
    if seen.interproc:
        out["analysis.interproc.routines"] = len(seen.interproc[-1].summaries)
        out["analysis.interproc.cache_hits"] = sum(r.stats.hits for r in seen.interproc)
        out["analysis.interproc.cache_misses"] = sum(r.stats.misses for r in seen.interproc)
    timed("analysis.port", calls=False)
    if seen.ports:
        out["analysis.port.refused"] = sum(len(p.refused) for p in seen.ports)

    # -- bench: what no wrapped callable covers ------------------------------
    timed("bench.reference", calls=False)
    if len(spans):
        out["bench.unattributed_frac"] = (
            self_times(spans, tracer.weights)[0] / spans.duration(0)
        )
    return out
