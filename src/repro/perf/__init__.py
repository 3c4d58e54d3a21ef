"""Performance tooling: calibration, breakdowns, scaling, trace export."""

from repro.perf.calibration import (
    PAPER_CALIBRATION,
    Calibration,
    build_model,
    project_run_minutes,
)
from repro.perf.breakdown import RunBreakdown, measure_breakdown
from repro.perf.scaling import ScalingPoint, ScalingSeries, measure_scaling
from repro.perf.trace_export import to_chrome_trace, write_chrome_trace

__all__ = [
    "Calibration",
    "PAPER_CALIBRATION",
    "build_model",
    "project_run_minutes",
    "RunBreakdown",
    "measure_breakdown",
    "ScalingPoint",
    "ScalingSeries",
    "measure_scaling",
    "to_chrome_trace",
    "write_chrome_trace",
]
