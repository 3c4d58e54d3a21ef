"""Disabled-telemetry overhead must stay negligible.

The instrumentation contract is that with no active session the hot
paths pay only a ``current()`` call plus an ``enabled`` check (and a
shared no-op context manager for spans). Rather than an A/B wall-clock
comparison -- noisy under CI load -- this measures the per-call hook cost
directly and bounds the implied fraction of a real step.

What *enabled* telemetry costs is a host-clock number, tracked by
``python3 -m bench``: the ``telemetry_roundtrip`` workload against
``step_dispatch`` (``obs.enabled_overhead_frac``).
"""

import time

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.obs.telemetry import NULL, current


#: Upper bound on instrumentation hook sites exercised per kernel launch
#: (dispatcher counter + halo/collective/pcg checks amortized).
HOOKS_PER_LAUNCH = 4

MAX_NOOP_FRACTION = 0.05


def _time_hook(n: int) -> float:
    """Seconds per disabled-telemetry hook (current() + enabled check)."""
    t0 = time.perf_counter()
    for _ in range(n):
        tel = current()
        if tel.enabled:  # pragma: no cover - telemetry disabled here
            raise AssertionError("no session should be active")
    return (time.perf_counter() - t0) / n


def test_noop_overhead_below_five_percent():
    assert current() is NULL
    model = MasModel(
        ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2,
                    sts_stages=2, extra_model_arrays=0),
        runtime_config_for(CodeVersion.A),
    )
    model.step()  # warm caches
    t0 = time.perf_counter()
    timing = model.step()
    step_host_seconds = time.perf_counter() - t0

    hook_seconds = _time_hook(20000)
    hook_calls = timing.launches * HOOKS_PER_LAUNCH
    est_overhead = hook_calls * hook_seconds

    fraction = est_overhead / step_host_seconds
    assert fraction < MAX_NOOP_FRACTION, (
        f"disabled-telemetry hooks cost {fraction:.2%} of a step "
        f"({hook_seconds * 1e9:.0f} ns/hook x {hook_calls} calls "
        f"vs {step_host_seconds * 1e3:.1f} ms step)"
    )


def test_null_span_allocates_nothing():
    tel = current()
    cm1 = tel.tracer.span("a", k=1)
    cm2 = tel.tracer.span("b")
    assert cm1 is cm2  # shared singleton context manager


def test_metric_children_are_resolved_once_per_kernel(monkeypatch, tmp_path):
    """Enabled telemetry resolves a kernel's counter children once, in the
    registry; a launch is one probe and four ``inc``s. Before, every launch
    re-registered four families and re-resolved four children: 18,488
    ``labels()`` calls a step at this size against some 1,300 now (the
    per-message and per-solve sites that remain)."""
    from repro.obs.metrics import MetricFamily
    from repro.obs.telemetry import session
    from repro.perf.calibration import MEASURE_SHAPE

    calls = [0]
    real = MetricFamily.labels

    def counted(self, **labels):
        calls[0] += 1
        return real(self, **labels)

    def model():
        return MasModel(
            ModelConfig(shape=MEASURE_SHAPE, num_ranks=8),
            runtime_config_for(CodeVersion.A),
        )

    monkeypatch.setattr(MetricFamily, "labels", counted)
    with session(tmp_path / "tel") as tel:
        m = model()
        m.step()  # warm-up: every kernel's children get bound here
        bound = len(tel.metrics.bound)
        calls[0] = 0
        timing = m.step()
        assert timing.launches > 3000
        assert 0 < calls[0] < 2000, calls[0]
        assert len(tel.metrics.bound) == bound  # nothing re-resolved
    calls[0] = 0
    m = model()
    m.step()
    assert current() is NULL and calls[0] == 0
