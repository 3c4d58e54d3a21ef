"""Device memory tracking.

A :class:`DeviceMemory` is a capacity-checked allocator ledger: it does not
store array payloads (those live in numpy on the host throughout the
simulation), it tracks *logical* allocations so that out-of-memory behaviour
and working-set sizes are faithful. The unified-memory manager layers page
residency on top of this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AllocationError(RuntimeError):
    """Raised when a device allocation exceeds remaining capacity."""


class Residency(enum.Enum):
    """Where the authoritative copy of a managed allocation currently lives."""

    HOST = "host"
    DEVICE = "device"
    #: Pages split between host and device (partially migrated).
    SPLIT = "split"

    #: Members are singletons, so identity hashing is the same equality and
    #: runs in C: a halo exchange keys its recorded walks on residencies,
    #: and ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Allocation:
    """One logical device allocation."""

    name: str
    nbytes: int
    residency: Residency = Residency.DEVICE

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("allocation size cannot be negative")


@dataclass(slots=True)
class DeviceMemory:
    """Capacity-checked ledger of live allocations on one device."""

    capacity: int
    _live: dict[str, Allocation] = field(default_factory=dict)
    _used: int = 0
    #: High-water mark, for reporting peak memory (the paper sized the test
    #: problem to fit a single A100-40GB).
    peak: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("device capacity must be positive")

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes remaining."""
        return self.capacity - self._used

    def allocate(self, name: str, nbytes: int, *, residency: Residency = Residency.DEVICE) -> Allocation:
        """Reserve ``nbytes`` under ``name``; raises on OOM or duplicates."""
        if name in self._live:
            raise AllocationError(f"allocation {name!r} already live")
        alloc = Allocation(name, int(nbytes), residency)
        if self._used + alloc.nbytes > self.capacity:
            raise AllocationError(
                f"out of device memory allocating {name!r}: "
                f"need {alloc.nbytes}, free {self.free} of {self.capacity}"
            )
        self._live[name] = alloc
        self._used += alloc.nbytes
        self.peak = max(self.peak, self._used)
        return alloc

    def deallocate(self, name: str) -> None:
        """Release a live allocation; raises KeyError if unknown."""
        alloc = self._live.pop(name)
        self._used -= alloc.nbytes

    def get(self, name: str) -> Allocation:
        """Look up a live allocation by name."""
        return self._live[name]

    def __contains__(self, name: str) -> bool:
        return name in self._live
