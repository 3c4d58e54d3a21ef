"""Host-speed reference: what makes host times comparable between runs.

The hosts this benchmark runs on are shared virtual machines whose CPU
speed moves in phases: for ten to fifteen seconds at a time every program,
this one included, runs about 40% slower, with no steal time reported. A
whole run often sits inside one phase, so medians within a run do not
help, and ten runs of one workload spread by 15-30% for that reason alone.

The harness therefore times a fixed pure-Python loop before and after
every piece of work it measures (outside the timed op itself) and divides
the work's host time by ``mean loop time / REFERENCE_NOMINAL_S``. Reported host times
are thus seconds *at the nominal speed of the authoring host*; the raw
seconds and the factors are kept in the result file. The loop tracks the
phases well because they slow interpreter and numpy code alike (measured:
1.10 s vs 1.58 s rounds against 17.9 ms vs 25.5 ms loops, a ratio of 61.5
and 62.0).
"""

from __future__ import annotations

import time

#: One reference pass on the authoring host outside a slow phase.
REFERENCE_NOMINAL_S = 0.0177

_PASS_ITERATIONS = 300_000


def reference_pass() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(_PASS_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def speed_factor(*passes: float) -> float:
    """Slowdown against nominal from the reference passes around a piece
    of work: 1.0 at nominal speed, about 1.4 in a slow phase."""
    return sum(passes) / len(passes) / REFERENCE_NOMINAL_S
