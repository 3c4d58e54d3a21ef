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

Everything is a near-zero-cost no-op unless a session is active. This
``__init__`` re-exports only the names callers import through it;
``current`` and ``session`` load neither numpy nor the machine model.
"""

from repro.obs.runlog import git_sha
from repro.obs.telemetry import current, session

__all__ = ["current", "git_sha", "session"]
