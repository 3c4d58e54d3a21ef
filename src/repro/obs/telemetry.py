"""Telemetry facade: one object the whole stack reports into.

A :class:`Telemetry` bundles the three signal types plus a profiler:

* ``metrics`` -- :class:`~repro.obs.metrics.MetricsRegistry` of labeled
  counters/gauges/histograms (``kernel_launches_total{version,category}``,
  ``halo_bytes_total{rank}``, ``step_seconds`` ...);
* ``tracer`` -- :class:`~repro.obs.tracing.Tracer` of hierarchical spans
  stamped in simulated seconds;
* ``logger`` -- :class:`~repro.obs.runlog.RunLogger` of structured JSONL
  records (one per step, per PCG solve, ...);
* ``profiler`` -- a :class:`~repro.obs.events.Profiler` attached to
  every bound model's rank clocks; its rows are the event record.

Instrumented code never holds a Telemetry directly: it calls
:func:`current`, which returns the innermost *active* session or the
shared :data:`NULL` no-op when telemetry is disabled (the default). The
no-op path costs one function call and an attribute check, so hot loops
stay hot (bounded at 5% of a step by ``tests/obs/test_overhead.py``).
Everything but a span and the clock binding sits behind ``tel.enabled``:
:data:`NULL` has nothing else, so ``NULL.metrics`` is an ``AttributeError``.

Activate a session around any run with::

    with session("out/", command="run") as tel:
        model = MasModel(...)   # binds itself via current()
        model.run(10)
    # out/ now holds manifest.json, log.jsonl, spans.jsonl,
    # metrics.prom, metrics.json, events.npz

``events.npz`` is the profiler's record
(:class:`~repro.obs.events.EventRecord`), written once, atomically; a Chrome
trace is exported from it on request (``repro telemetry DIR --chrome-trace``).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLogger, build_manifest, json_dumps
from repro.obs.tracing import Tracer

#: Files a finalized telemetry directory contains.
MANIFEST_FILE = "manifest.json"
LOG_FILE = "log.jsonl"
SPANS_FILE = "spans.jsonl"
METRICS_PROM_FILE = "metrics.prom"
METRICS_JSON_FILE = "metrics.json"
EVENTS_FILE = "events.npz"
SWEEP_FILE = "sweep.json"  # only ``repro sweep --telemetry DIR`` writes it

#: Rotated metrics snapshots kept on disk (metrics.json.1 .. .K).
METRICS_SNAPSHOT_KEEP = 3


class Telemetry:
    """An active telemetry session collecting metrics, spans and logs."""

    enabled = True

    def __init__(
        self,
        out_dir: str | Path | None = None,
        *,
        flush_every_n: int = 0,
        snapshot_every_n: int = 0,
    ) -> None:
        from repro.obs.events import Profiler  # numpy: only a live session

        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.logger = RunLogger()
        self.profiler = Profiler()
        #: Extra manifest fields (command, cli args, bound models).
        self.manifest_extra: dict[str, Any] = {"models": []}
        self._models_bound = 0
        #: Main-clock lane per clock id, so overlapped-exchange comm clocks
        #: can attach under ``<lane>:comm``.
        self._clock_lanes: dict[int, str] = {}
        #: Opt-in streaming: >0 appends log records / completed spans to
        #: their JSONL files every N events, so a killed run still leaves
        #: parseable telemetry (finalize rewrites both files in full).
        self.flush_every_n = flush_every_n
        #: Opt-in snapshot rotation: >0 rewrites ``metrics.json`` every N
        #: model steps (rotating prior snapshots to ``metrics.json.1..K``),
        #: the counterpart of JSONL streaming for the *cumulative* signal --
        #: a killed long run keeps a recent counter state on disk.
        self.snapshot_every_n = snapshot_every_n
        self._steps_since_snapshot = 0
        self.snapshots_taken = 0
        if flush_every_n > 0 and self.out_dir is not None:
            self.logger.attach_sink(self.out_dir / LOG_FILE, flush_every_n=flush_every_n)
            self.tracer.attach_sink(self.out_dir / SPANS_FILE, flush_every_n=flush_every_n)

    def flush(self) -> dict[str, int]:
        """Force a streaming flush; returns records/spans written."""
        return {"log": self.logger.flush(), "spans": self.tracer.flush()}

    # -- metrics snapshot rotation -------------------------------------------

    def snapshot_metrics(self) -> Path | None:
        """Write ``metrics.json`` now, rotating prior snapshots.

        The existing ``metrics.json`` shifts to ``metrics.json.1``,
        ``.1`` to ``.2``, ... keeping :data:`METRICS_SNAPSHOT_KEEP` old
        snapshots (the oldest falls off). Returns the written path, or
        ``None`` when the session has no output directory.
        """
        if self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        live = self.out_dir / METRICS_JSON_FILE
        if live.exists():
            for k in range(METRICS_SNAPSHOT_KEEP - 1, 0, -1):
                older = self.out_dir / f"{METRICS_JSON_FILE}.{k}"
                if older.exists():
                    older.replace(self.out_dir / f"{METRICS_JSON_FILE}.{k + 1}")
            live.replace(self.out_dir / f"{METRICS_JSON_FILE}.1")
        live.write_text(self.metrics.to_json_text())
        self.snapshots_taken += 1
        return live

    def maybe_snapshot_metrics(self) -> Path | None:
        """Per-step rotation hook: snapshot every ``snapshot_every_n`` steps.

        Called by the model after each recorded step; a no-op until the
        configured cadence is reached (or when rotation is disabled).
        """
        if self.snapshot_every_n <= 0:
            return None
        self._steps_since_snapshot += 1
        if self._steps_since_snapshot < self.snapshot_every_n:
            return None
        self._steps_since_snapshot = 0
        return self.snapshot_metrics()

    # -- model binding -------------------------------------------------------

    def bind_model(self, model: Any) -> str:
        """Hook a MasModel into this session; returns its lane prefix.

        Attaches the profiler to every rank clock (lanes ``m<i>.rank<r>``),
        points the tracer's simulated-time source at the model's clocks,
        and records the model's configuration for the manifest.
        """
        idx = self._models_bound
        self._models_bound += 1
        prefix = f"m{idx}"
        clocks = [rt.clock for rt in model.ranks]
        for r, clock in enumerate(clocks):
            lane = f"{prefix}.rank{r}"
            self.profiler.attach(clock, lane)
            self._clock_lanes[id(clock)] = lane
        self.tracer.time_fn = lambda: max(c.now for c in clocks)
        cfg = model.config
        entry = {
            "index": idx,
            "version": model.rt_config.name,
            "target": model.rt_config.target,
            "unified_memory": model.rt_config.unified_memory,
            "shape": list(cfg.shape),
            "nominal_shape": list(cfg.nominal_shape),
            "num_ranks": cfg.num_ranks,
            "pcg_iters": cfg.pcg_iters,
            "pcg_variant": getattr(cfg, "pcg_variant", "classic"),
            "pcg_precond": getattr(cfg, "pcg_precond", "jacobi"),
            "sts_stages": cfg.sts_stages,
            "machine": _machine_entry(model),
        }
        self.manifest_extra["models"].append(entry)
        self.logger.log("model_created", **entry)
        self.metrics.counter(
            "models_total", "models bound to this telemetry session"
        ).inc()
        return prefix

    def attach_comm_clock(self, main_clock: Any, comm_clock: Any) -> str | None:
        """Profile a detached communication clock under ``<lane>:comm``.

        The overlapped halo exchange charges its pack/wire/unpack cost to
        per-rank communication clocks while the main clocks advance under
        interior compute; attaching them here makes the hidden work
        visible (its own Chrome-trace track, critical-path lane). Returns
        the comm lane, or None when ``main_clock`` is not a bound rank
        clock.
        """
        lane = self._clock_lanes.get(id(main_clock))
        if lane is None:
            return None
        comm_lane = f"{lane}:comm"
        self.profiler.attach(comm_clock, comm_lane)
        return comm_lane

    def detach_comm_clock(self, comm_clock: Any) -> None:
        """Stop profiling a communication clock (events are kept)."""
        self.profiler.detach(comm_clock)

    # -- snapshots & finalization --------------------------------------------

    def build_manifest(self) -> dict[str, Any]:
        """Provenance manifest for this session."""
        return build_manifest(**self.manifest_extra)

    def finalize(self, out_dir: str | Path | None = None) -> dict[str, Path]:
        """Write every artifact; returns ``{artifact_name: path}``.

        A no-op (returns ``{}``) when no output directory was configured.
        """
        target = Path(out_dir) if out_dir is not None else self.out_dir
        if target is None:
            return {}
        target.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}

        def write(name: str, text: str) -> None:
            p = target / name
            p.write_text(text)
            paths[name] = p

        self._bake_sol_gauges()
        write(MANIFEST_FILE, json_dumps(self.build_manifest()))
        write(LOG_FILE, self.logger.to_jsonl() + "\n" if self.logger.records else "")
        write(SPANS_FILE, self.tracer.to_jsonl() + "\n" if self.tracer.spans else "")
        write(METRICS_PROM_FILE, self.metrics.to_prometheus_text())
        write(METRICS_JSON_FILE, self.metrics.to_json_text())
        paths[EVENTS_FILE] = self.profiler.record().save(target / EVENTS_FILE)
        return paths

    def _bake_sol_gauges(self) -> None:
        """Bake ``kernel_sol_fraction{kernel}`` gauges into the registry.

        Runs at finalize so the exported metrics carry the roofline
        speed-of-light fraction per kernel (cross-run compares see
        efficiency shifts directly). A no-op when no model recorded
        machine peaks or no kernel counters were emitted.
        """
        from repro.perf.roofline import peaks_from_manifest, sol_fraction_gauges

        peaks = peaks_from_manifest({"models": self.manifest_extra.get("models")})
        if peaks is None:
            return
        fractions = sol_fraction_gauges(self.metrics.to_json(), peaks)
        if not fractions:
            return
        gauge = self.metrics.gauge(
            "kernel_sol_fraction",
            "fraction of roofline speed-of-light each kernel reached",
            labelnames=("kernel",),
        )
        for kernel, frac in fractions.items():
            gauge.labels(kernel=kernel).set(frac)


def _machine_entry(model: Any) -> dict[str, Any]:
    """Device peaks of a bound model (roofline speed-of-light input)."""
    from repro.machine.spec import GpuSpec

    spec = model.ranks[0].machine.spec
    gpu = isinstance(spec, GpuSpec)
    return {
        "kind": "gpu" if gpu else "cpu",
        "name": spec.name,
        "mem_bandwidth": float(spec.mem_bandwidth),
        "flops": float(spec.flops_fp64) if gpu else 0.0,
        "stream_efficiency": float(spec.stream_efficiency),
    }


class _NullTracer:
    """The disabled tracer. Every span it opens is the tracer itself, one
    shared no-op context, so a span costs one call and allocates nothing."""

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> "_NullTracer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


class NullTelemetry:
    """Disabled telemetry: a span and the clock bindings are no-ops;
    everything else sits behind ``tel.enabled`` and is not here."""

    __slots__ = ()

    enabled = False
    tracer = _NullTracer()

    def bind_model(self, model: Any) -> str:
        return ""

    def attach_comm_clock(self, main_clock: Any, comm_clock: Any) -> None:
        return None

    def detach_comm_clock(self, comm_clock: Any) -> None:
        return None


NULL = NullTelemetry()

#: Stack of active sessions; instrumented code reads the top via current().
_ACTIVE: list[Telemetry] = []


def current() -> Telemetry | NullTelemetry:
    """The innermost active telemetry session, or the shared no-op."""
    return _ACTIVE[-1] if _ACTIVE else NULL


def activate(telemetry: Telemetry) -> Telemetry:
    """Push a session onto the active stack; returns it."""
    _ACTIVE.append(telemetry)
    return telemetry


def deactivate(telemetry: Telemetry) -> None:
    """Pop a session (it need not be the innermost)."""
    for i in range(len(_ACTIVE) - 1, -1, -1):
        if _ACTIVE[i] is telemetry:
            del _ACTIVE[i]
            return
    raise ValueError("telemetry session is not active")


@contextmanager
def session(
    out_dir: str | Path | None,
    *,
    flush_every_n: int = 0,
    snapshot_every_n: int = 0,
    **manifest_extra: Any,
) -> Iterator[Telemetry | NullTelemetry]:
    """Activate a telemetry session; finalize to ``out_dir`` on exit.

    With ``out_dir=None`` (or an empty string -- an empty ``--telemetry``
    value must not scatter artifacts into the CWD) nothing is activated
    and the shared no-op is yielded, so callers can wrap code
    unconditionally::

        with session(args.telemetry, command="fig2"):
            run_fig2()

    ``flush_every_n > 0`` turns on streaming JSONL (see
    :attr:`Telemetry.flush_every_n`); ``snapshot_every_n > 0`` turns on
    metrics snapshot rotation (see :meth:`Telemetry.maybe_snapshot_metrics`).
    """
    if out_dir is None or str(out_dir) == "":
        yield NULL
        return
    tel = Telemetry(
        out_dir, flush_every_n=flush_every_n, snapshot_every_n=snapshot_every_n
    )
    tel.manifest_extra.update(manifest_extra)
    activate(tel)
    try:
        yield tel
    finally:
        deactivate(tel)
        tel.finalize()
