"""Simulated clock with time-category accounting.

Each simulated MPI rank owns one :class:`SimClock`. Every cost the machine
model produces is charged to a :class:`TimeCategory`; Fig. 3's split is then
simply ``mpi = sum(categories in MPI_CATEGORIES)`` vs everything else.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable


class TimeCategory(enum.Enum):
    """What a slice of simulated wall-clock time was spent on."""

    COMPUTE = "compute"            # kernel bodies doing physics
    LAUNCH = "launch"              # kernel launch gaps / host round-trips
    UM_FAULT = "um_fault"          # unified-memory page migration
    H2D = "h2d"                    # explicit host-to-device copies
    D2H = "d2h"                    # explicit device-to-host copies
    MPI_PACK = "mpi_pack"          # halo buffer load/unload kernels
    MPI_TRANSFER = "mpi_transfer"  # wire/NVLink/PCIe time of MPI messages
    MPI_WAIT = "mpi_wait"          # load-imbalance wait at exchanges
    HOST = "host"                  # host-side serial work (setup etc.)

    #: Members are singletons, so identity hashing is the same equality and
    #: runs in C: ``by_category`` is keyed twice per clock advance, and
    #: ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


#: Categories the paper's Fig. 3 counts as "MPI time": "all MPI calls,
#: buffer initialization/loading/unloading, and MPI waiting caused by load
#: imbalance".
#: A tuple, not a set: ``total`` sums floats in this order, and a set of enum
#: members iterates in an order that follows ``PYTHONHASHSEED``.
MPI_CATEGORIES = (TimeCategory.MPI_PACK, TimeCategory.MPI_TRANSFER, TimeCategory.MPI_WAIT)


@dataclass(slots=True)
class SimClock:
    """Monotonic simulated time with per-category totals.

    ``on_advance`` observers receive ``(start, duration, category, label)``
    for every advance; the profiler registers one to build Fig. 4 timelines.
    While none is registered, :meth:`Engine.charge
    <repro.runtime.engine.Engine.charge>` applies an advance's two adds
    inline.
    """

    now: float = 0.0
    by_category: dict[TimeCategory, float] = field(default_factory=dict)
    _observers: list[Callable[[float, float, TimeCategory, str], None]] = field(
        default_factory=list
    )

    def advance(self, dt: float, category: TimeCategory, label: str = "") -> float:
        """Advance time by ``dt`` seconds charged to ``category``; ``dt`` must
        be finite and non-negative (a NaN would poison every total after it)."""
        if not 0.0 <= dt < math.inf:
            raise ValueError(f"cannot advance clock by {dt}: not a finite non-negative time")
        start = self.now
        self.now += dt
        self.by_category[category] = self.by_category.get(category, 0.0) + dt
        for obs in self._observers:
            obs(start, dt, category, label)
        return self.now

    def wait_until(self, t: float, category: TimeCategory = TimeCategory.MPI_WAIT,
                   label: str = "") -> float:
        """Advance to absolute time ``t`` (no-op if already past it)."""
        if t > self.now:
            self.advance(t - self.now, category, label)
        elif t != t:
            raise ValueError("cannot wait until a NaN time")
        return self.now

    def subscribe(self, observer: Callable[[float, float, TimeCategory, str], None]) -> None:
        """Register an observer of every advance (e.g. the profiler)."""
        self._observers.append(observer)

    def unsubscribe(
        self, observer: Callable[[float, float, TimeCategory, str], None]
    ) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def observer_count(self) -> int:
        """Number of registered observers (leak checks in tests)."""
        return len(self._observers)

    def total(self, categories: Iterable[TimeCategory] | None = None) -> float:
        """Total time, optionally restricted to some categories (summed in
        the order given)."""
        if categories is None:
            return self.now
        return sum(self.by_category.get(c, 0.0) for c in categories)

    @property
    def mpi_time(self) -> float:
        """Fig. 3's maroon bar: pack + transfer + wait."""
        return self.total(MPI_CATEGORIES)

    def snapshot(self) -> dict[str, float]:
        """Category totals keyed by category value (for reports)."""
        return {c.value: t for c, t in sorted(self.by_category.items(), key=lambda kv: kv[0].value)}
