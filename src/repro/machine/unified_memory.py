"""Unified managed memory (UM) paging engine.

NVIDIA's managed memory automatically pages data between host and device on
demand. The paper (SIV-B, Fig. 4) attributes the UM slowdown to two effects,
both modelled here:

1. MPI buffers living in managed memory are touched by the host-side MPI
   library, so every halo exchange drags pages device->host->device over
   PCIe instead of riding NVLink peer-to-peer.
2. Page-fault servicing adds per-page latency and enlarges the gaps between
   kernel launches.

The manager tracks residency per named allocation at page granularity and
returns the *time cost* of each touch; the caller (runtime / MPI transport)
advances its simulated clock by that amount and logs profiler events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.machine.memory import Residency
from repro.machine.spec import LinkSpec
from repro.util.units import KiB, MiB

#: Read once: an enum member looked up on its class costs a Python-level
#: ``EnumType.__getattr__`` hook on every access (Python 3.11).
_HOST, _DEVICE = Residency.HOST, Residency.DEVICE


@dataclass(slots=True)
class PageMigrationStats:
    """Counters accumulated by one :class:`UnifiedMemoryManager`."""

    faults_h2d: int = 0
    faults_d2h: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0

    @property
    def total_faults(self) -> int:
        """Total page-fault groups serviced in either direction."""
        return self.faults_h2d + self.faults_d2h

    @property
    def total_bytes(self) -> int:
        """Total bytes migrated in either direction."""
        return self.bytes_h2d + self.bytes_d2h

    def merge(self, other: "PageMigrationStats") -> None:
        """Accumulate another rank's counters into this one."""
        self.faults_h2d += other.faults_h2d
        self.faults_d2h += other.faults_d2h
        self.bytes_h2d += other.bytes_h2d
        self.bytes_d2h += other.bytes_d2h

    def since(self, earlier: "PageMigrationStats") -> "PageMigrationStats":
        """What was counted after ``earlier``, a copy of these counters."""
        return PageMigrationStats(
            self.faults_h2d - earlier.faults_h2d,
            self.faults_d2h - earlier.faults_d2h,
            self.bytes_h2d - earlier.bytes_h2d,
            self.bytes_d2h - earlier.bytes_d2h,
        )


@dataclass(slots=True)
class UnifiedMemoryManager:
    """Per-device residency tracker with migration cost accounting.

    ``fault_latency`` is the service time of one page-fault *group* (the
    driver batches replayable faults and migrates whole 2 MiB pages, so it
    is charged per migrated page, not per 4KiB OS page).
    """

    host_link: LinkSpec
    page_size: int = 2 * MiB
    fault_group: int = 2 * MiB
    fault_latency: float = 10e-6
    #: Residency per allocation name.
    _residency: dict[str, Residency] = field(default_factory=dict)
    stats: PageMigrationStats = field(default_factory=PageMigrationStats)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.fault_group <= 0:
            raise ValueError("page sizes must be positive")
        if self.fault_latency < 0:
            raise ValueError("fault latency cannot be negative")

    def register(self, name: str, *, residency: Residency = Residency.HOST) -> None:
        """Declare a managed allocation; UM allocations start host-resident."""
        if name in self._residency:
            raise ValueError(f"managed allocation {name!r} already registered")
        self._residency[name] = residency

    def unregister(self, name: str) -> None:
        """Forget an allocation (e.g. deallocated array)."""
        del self._residency[name]

    def residency(self, name: str) -> Residency:
        """Current residency of a managed allocation."""
        return self._residency[name]

    def __contains__(self, name: str) -> bool:
        return name in self._residency

    def residencies(self, names: tuple[str, ...]) -> tuple[Residency, ...]:
        """Current residency of each of ``names``, in order."""
        return tuple(map(self._residency.__getitem__, names))

    def replay(
        self,
        names: tuple[str, ...],
        residencies: tuple[Residency, ...],
        counted: PageMigrationStats,
    ) -> None:
        """Leave ``names`` at ``residencies`` and count ``counted``: what a
        recorded sequence of touches, started from a recorded state, did."""
        self._residency.update(zip(names, residencies))
        self.stats.merge(counted)

    def _migration_cost(self, nbytes: int) -> float:
        groups = max(1, math.ceil(nbytes / self.fault_group))
        # Fault servicing is partially pipelined with the copy; charge the
        # copy at link bandwidth plus a per-group latency term.
        return groups * self.fault_latency + self.host_link.transfer_time(nbytes)

    def touch_device(self, name: str, nbytes: int) -> float:
        """GPU access to ``nbytes`` of ``name``; returns migration time.

        Host-resident (or split) data migrates to the device; already
        device-resident data is free.
        """
        if nbytes < 0:
            raise ValueError("touch size cannot be negative")
        res = self._residency[name]
        if res is _DEVICE or nbytes == 0:
            return 0.0
        self._residency[name] = _DEVICE
        self.stats.faults_h2d += max(1, math.ceil(nbytes / self.fault_group))
        self.stats.bytes_h2d += nbytes
        return self._migration_cost(nbytes)

    def touch_host(self, name: str, nbytes: int) -> float:
        """CPU access to ``nbytes`` of ``name``; returns migration time."""
        if nbytes < 0:
            raise ValueError("touch size cannot be negative")
        res = self._residency[name]
        if res is _HOST or nbytes == 0:
            return 0.0
        self._residency[name] = _HOST
        self.stats.faults_d2h += max(1, math.ceil(nbytes / self.fault_group))
        self.stats.bytes_d2h += nbytes
        return self._migration_cost(nbytes)
