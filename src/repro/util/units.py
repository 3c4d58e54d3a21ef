"""Unit constants and human-readable formatting.

The paper mixes decimal (GB/s memory bandwidth) and binary (GiB/s, 40GB HBM)
units; keeping both explicit avoids the classic 7% calibration error.
"""

from __future__ import annotations

# Decimal (SI) byte units -- used for bandwidths quoted by vendors.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

# Binary byte units -- used for memory capacities and some CPU bandwidths.
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
TiB = 1 << 40

#: Seconds in a minute (wall-clock tables in the paper are in minutes).
MINUTE = 60.0


def minutes(m: float) -> float:
    """Convert minutes to seconds (the simulator's base time unit)."""
    return m * MINUTE


def seconds_to_minutes(s: float) -> float:
    """Convert seconds to minutes for paper-style reporting."""
    return s / MINUTE


def fmt_bytes(n: float) -> str:
    """Format a byte count with a binary suffix, e.g. ``1.50 GiB``."""
    n = float(n)
    for suffix, unit in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= unit:
            return f"{n / unit:.2f} {suffix}"
    return f"{n:.0f} B"


def fmt_duration(seconds: float) -> str:
    """Format a duration adaptively (us / ms / s / min)."""
    s = float(seconds)
    if s < 0:
        return "-" + fmt_duration(-s)
    if s < 1e-3:
        return f"{s * 1e6:.1f} us"
    if s < 1.0:
        return f"{s * 1e3:.2f} ms"
    if s < MINUTE:
        return f"{s:.2f} s"
    return f"{s / MINUTE:.2f} min"
