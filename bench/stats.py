"""The few statistics the benchmark reports."""

from __future__ import annotations

from statistics import median

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its
    value; ``None`` below twenty samples (the median is then all a reader
    may trust)."""
    n = len(samples)
    if n < 2 * TAIL_SAMPLES:
        return None
    index = n - TAIL_SAMPLES - 1
    return (100 * (index + 1)) // n, sorted(samples)[index]


def spread_frac(values: list[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / median(values)
