"""Run one workload in this process: rounds, timing, checks, traced round.

Closed loop, one client. End-to-end metrics come from the ``ROUNDS``
untraced rounds only; with ``trace`` one extra round runs under the
tracer and gives the per-layer metrics. Every host time is divided by the
host-speed factor of the round it was measured in (see
:mod:`bench.hostspeed`); raw seconds stay in the result document.
"""

from __future__ import annotations

import contextlib
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

from bench import layers, schema, stats
from bench.checks import Check, equal
from bench.fingerprint import fingerprint
from bench.hostspeed import REFERENCE_NOMINAL_S, reference_pass, speed_factor
from bench.inputs import make_inputs
from bench.tracer import Tracer
from bench.workloads import ROUNDS, Workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Units of per-layer metrics that are host times.
TIME_UNITS = ("s", "ms", "us")


@dataclass
class Round:
    """What one round of a workload measured and produced."""

    raw_setup_s: float = 0.0
    setup_speed: float = 1.0  # host-speed factor around set-up (1.0 = nominal)
    #: (label, raw seconds, host-speed factor around the op)
    raw_ops: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    raised: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    layer_counts: dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.raw_setup_s / self.setup_speed

    @property
    def raw_wall_s(self) -> float:
        """The timed region: the ops, without the harness between them."""
        return sum(seconds for _, seconds, _ in self.raw_ops)

    @property
    def ops(self) -> list[tuple[str, float]]:
        """(label, ms at nominal host speed) per op."""
        return [(label, seconds * 1e3 / speed) for label, seconds, speed in self.raw_ops]

    @property
    def wall_s(self) -> float:
        return sum(ms for _, ms in self.ops) / 1e3

    @property
    def speed(self) -> float:
        """Host-speed factor of the timed region as a whole."""
        return self.raw_wall_s / self.wall_s

    @property
    def failed(self) -> int:
        """Ops that raised, or every op when the round's output is wrong."""
        if any(not c.ok for c in self.checks):
            return self.attempted
        return len(self.raised)


def run_round(
    w: Workload, inputs: Any, tracing: tuple[Tracer, layers.Captured] | None = None
) -> Round:
    """Set up, run the ops in a timed region, then check outside it."""
    r = Round()
    ctx = None
    if tracing is not None:
        tracer, seen = tracing
        layers.install(tracer, seen)
        root: Any = tracer.span("bench.round", layers.ROOT_KEY)

        def reference() -> float:
            # the harness's own time, not the program's
            with tracer.span("bench.reference_pass", "bench.reference"):
                return reference_pass()
    else:
        root = contextlib.nullcontext()
        reference = reference_pass
    try:
        with root:
            before = reference()
            t0 = time.perf_counter()
            ctx = w.setup(inputs)
            r.raw_setup_s = time.perf_counter() - t0
            after = reference()
            r.setup_speed = speed_factor(before, after)
            ops = list(w.ops(ctx))  # untimed preparation runs here
            r.attempted = len(ops)
            before = reference()
            for label, op in ops:
                start = time.perf_counter()
                try:
                    op()
                except Exception:  # an op that fails is a result, not a crash
                    r.raised.append(f"{label}: {traceback.format_exc()}")
                    break
                seconds = time.perf_counter() - start
                after = reference()
                r.raw_ops.append((label, seconds, speed_factor(before, after)))
                before = after
    finally:
        if tracing is not None:
            tracing[0].restore()
    try:
        if not r.raised:
            r.facts = w.facts(ctx)
            r.checks = w.check_round(ctx, r.facts)
            r.layer_counts = w.layer_counts(ctx)
    finally:
        if ctx is not None:
            w.close(ctx)
    return r


def _peak_rss_mb() -> float:
    # ru_maxrss is kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(w: Workload, *, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """The full result document of one workload run."""
    load = os.getloadavg()
    before = reference_pass()
    t0 = time.perf_counter()
    w.import_program()
    raw_import_s = time.perf_counter() - t0
    import_speed = speed_factor(before, reference_pass())
    import_s = raw_import_s / import_speed
    host = fingerprint(load)
    inputs = make_inputs(seed)
    w.plan(seconds)

    rounds = [run_round(w, inputs) for _ in range(ROUNDS)]
    peak_rss_mb = _peak_rss_mb()  # before the tracer's spans and reference runs
    all_rounds = list(rounds)

    per_layer: dict[str, float] = {}
    if trace:
        tracer, seen = Tracer(), layers.Captured()
        traced = run_round(w, inputs, (tracer, seen))
        all_rounds.append(traced)
        units = {name: spec["unit"] for name, spec in schema.specs("per_layer").items()}
        per_layer = {
            # host times of the traced round, at nominal host speed like the rest
            name: value / traced.speed
            if units[name] in TIME_UNITS and not name.startswith(layers.SIMULATED) else value
            for name, value in layers.metrics(tracer, seen).items()
        }
        per_layer.update(traced.layer_counts)
        tracer.write(
            RESULTS_DIR / f"trace_{w.name}.json", workload=w.name, seed=seed, seconds=seconds
        )

    # -- checks over the whole run -------------------------------------------
    op_ms: dict[str, list[float]] = {}
    for r in rounds:
        for label, ms in r.ops:
            op_ms.setdefault(label, []).append(ms)
    facts = rounds[0].facts
    run_checks = [
        equal(f"round_{i}_repeats_round_0", r.facts, facts)
        for i, r in enumerate(all_rounds) if i and not r.raised
    ]
    if not any(r.raised for r in all_rounds):
        more, extra_layer = w.check_run(inputs, facts, op_ms)
        run_checks += more
        if trace:
            per_layer.update(extra_layer)

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    if any(not c.ok for c in run_checks):
        failed = attempted

    # -- end-to-end metrics (untraced rounds only) ---------------------------
    pooled = [ms for r in rounds for _, ms in r.ops]
    wall_s = median(r.wall_s for r in rounds)
    end_to_end = {
        "setup_s": import_s + median(r.setup_s for r in rounds),
        "wall_s": wall_s,
        "op_ms_p50": median(pooled) if pooled else 0.0,
        "work_per_s": w.work() / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        per_layer["bench.trace_overhead_frac"] = all_rounds[-1].wall_s / wall_s - 1.0
        per_layer["bench.ops"] = len(pooled)
        per_layer["bench.round_spread_frac"] = stats.spread_frac([r.wall_s for r in rounds])
        per_layer["bench.host_speed_factor"] = median(r.speed for r in rounds)
        per_layer["bench.raw_wall_s"] = median(r.raw_wall_s for r in rounds)
        if (t := stats.tail(pooled)) is not None:
            per_layer["bench.tail_percentile"], per_layer["bench.op_ms_tail"] = t

    checks = [c for r in all_rounds for c in r.checks] + run_checks
    return {
        "schema": schema.RESULT_SCHEMA,
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "ops_per_round": rounds[0].attempted,
        "work_per_round": w.work(),
        "work_unit": w.work_unit,
        "end_to_end": schema.with_units("end_to_end", end_to_end),
        "per_layer": schema.with_units("per_layer", per_layer),
        "import_s": import_s,
        "round_setup_s": [r.setup_s for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
        "host_speed": {
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "import_factor": import_speed,
            "round_factors": [r.speed for r in all_rounds],
            "raw_import_s": raw_import_s,
            "raw_round_setup_s": [r.raw_setup_s for r in rounds],
            "raw_round_wall_s": [r.raw_wall_s for r in rounds],
        },
        "op_samples": len(pooled),
        "facts": facts,
        "checks": [c.to_json() for c in checks],
        "raised": [msg for r in all_rounds for msg in r.raised],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "fingerprint": host,
    }
