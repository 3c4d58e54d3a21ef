"""Shared utilities: units, table rendering, ASCII plotting, the root seed.

These are deliberately dependency-light helpers used by every other
subsystem. Nothing in here knows about MHD, GPUs, or Fortran.
"""

from repro.util.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    fmt_bytes,
    fmt_duration,
    minutes,
    seconds_to_minutes,
)
from repro.util.tables import Table
from repro.util.ascii_plot import AsciiBarChart, AsciiLinePlot, AsciiTimeline

__all__ = [
    "GB",
    "GiB",
    "KB",
    "KiB",
    "MB",
    "MiB",
    "fmt_bytes",
    "fmt_duration",
    "minutes",
    "seconds_to_minutes",
    "Table",
    "AsciiBarChart",
    "AsciiLinePlot",
    "AsciiTimeline",
]
