"""Unified telemetry layer: metrics, span tracing, structured logging.

The observability subsystem the solver/runtime/MPI stack reports into
(see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` -- labeled counters/gauges/histograms with
  Prometheus-text and JSON exporters;
* :mod:`repro.obs.tracing` -- hierarchical spans over simulated time,
  merged into the Chrome trace next to profiler lanes;
* :mod:`repro.obs.runlog` -- structured JSONL run records + manifest;
* :mod:`repro.obs.events` -- the profiler and the one columnar event
  record every reader takes (``events.npz``);
* :mod:`repro.obs.telemetry` -- the session facade and the global
  :func:`current` accessor instrumented code uses;
* :mod:`repro.obs.summary` -- ``repro telemetry DIR`` table rendering;
* :mod:`repro.obs.compare` -- ``repro telemetry --compare A B`` cross-run
  metrics diff;
* :mod:`repro.obs.critpath` -- cross-rank critical-path extraction and
  blame attribution (``repro critpath DIR``);
* :mod:`repro.obs.explain` -- hierarchical regression explanation
  (``repro telemetry --compare A B --explain``).

Everything is a near-zero-cost no-op unless a session is active.
"""

from repro.obs.compare import (
    MetricDelta,
    compare_metrics,
    load_metrics,
    render_compare,
)
from repro.obs.critpath import (
    CritPathResult,
    analyze_dir,
    analyze_session,
    render_result,
)
from repro.obs.explain import Explanation, explain, explain_dirs, render_explain
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.runlog import RunLogger, build_manifest, git_sha
from repro.obs.telemetry import (
    NULL,
    NullTelemetry,
    Telemetry,
    activate,
    current,
    deactivate,
    session,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "CritPathResult",
    "DEFAULT_BUCKETS",
    "Explanation",
    "MetricDelta",
    "MetricsRegistry",
    "NULL",
    "NullTelemetry",
    "RunLogger",
    "Span",
    "Telemetry",
    "Tracer",
    "activate",
    "analyze_dir",
    "analyze_session",
    "build_manifest",
    "compare_metrics",
    "current",
    "deactivate",
    "explain",
    "explain_dirs",
    "git_sha",
    "load_metrics",
    "render_compare",
    "render_explain",
    "render_result",
    "session",
]
