"""Performance tooling: calibration, breakdowns, scaling, trace export."""
