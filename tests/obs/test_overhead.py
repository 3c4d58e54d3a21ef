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
