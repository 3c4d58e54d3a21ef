"""Data environments: manual OpenACC-style data management vs unified memory.

In MANUAL mode (Codes 1, 2, 6) arrays are placed on the device once with
``enter_data`` (the OpenACC ``enter data create/copyin`` directives) and stay
resident; explicit ``update`` directives cost PCIe transfers; MPI can pass
device pointers (CUDA-aware -> NVLink peer-to-peer).

In UNIFIED mode (Codes 3, 4, 5) arrays are managed: first GPU touch after a
host touch faults pages in over PCIe, and every host-side access (the MPI
library touching send/recv buffers) faults them back. This asymmetry is the
entire Fig. 3/4 story.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.machine.memory import AllocationError, DeviceMemory
from repro.machine.spec import LinkSpec
from repro.machine.unified_memory import UnifiedMemoryManager
from repro.runtime.clock import TimeCategory
from repro.runtime.kernel import KernelSpec


class DataMode(enum.Enum):
    """How a rank's arrays are kept coherent with its GPU."""

    MANUAL = "manual"
    UNIFIED = "unified"
    CPU = "cpu"


#: Looked up once: an enum member read off its class costs a Python call,
#: and a model registers a few hundred arrays per rank.
_MANUAL, _UNIFIED = DataMode.MANUAL, DataMode.UNIFIED
_H2D = TimeCategory.H2D


@dataclass(slots=True)
class LogicalArray:
    """A named array as the cost model sees it.

    ``nominal_bytes`` is the paper-scale footprint used for costing;
    ``data`` is the (usually much smaller) numpy array the numerics run on.
    """

    name: str
    nominal_bytes: int
    data: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.nominal_bytes < 0:
            raise ValueError("nominal_bytes cannot be negative")


@dataclass(slots=True)
class Charge:
    """One cost item to apply to the rank clock."""

    seconds: float
    category: TimeCategory
    label: str = ""


class DataEnvironment:
    """Per-rank registry of logical arrays plus residency semantics."""

    def __init__(
        self,
        mode: DataMode,
        *,
        device_memory: DeviceMemory | None = None,
        host_link: LinkSpec | None = None,
        um: UnifiedMemoryManager | None = None,
    ) -> None:
        self.mode = mode
        if mode is not DataMode.CPU:
            if device_memory is None or host_link is None:
                raise ValueError("GPU data environments need device memory and a host link")
        self.device_memory = device_memory
        self.host_link = host_link
        if mode is DataMode.UNIFIED:
            if um is None:
                if host_link is None:
                    raise ValueError("unified mode needs a host link")
                um = UnifiedMemoryManager(host_link=host_link)
            self.um = um
        else:
            self.um = None
        self._arrays: dict[str, LogicalArray] = {}
        self._present: set[str] = set()
        #: Bumped by ``register``/``unregister``/``enter_data``/``exit_data``:
        #: everything a launch's price reads from this environment (nominal
        #: sizes, device presence) is unchanged while the epoch is.
        self.epoch = 0
        #: Running sum of registered nominal bytes (the rank's working set).
        self.total_nominal_bytes = 0

    # -- registration -----------------------------------------------------

    def register(self, name: str, nominal_bytes: int, data: np.ndarray | None = None) -> LogicalArray:
        """Declare a logical array. UM-managed arrays start host-resident."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already registered")
        arr = LogicalArray(name, int(nominal_bytes), data)
        self._arrays[name] = arr
        self.total_nominal_bytes += arr.nominal_bytes
        self.epoch += 1
        if self.mode is _UNIFIED:
            assert self.um is not None
            self.um.register(name)  # host-resident
            # managed allocations still consume device capacity when resident;
            # we account capacity at registration like cudaMallocManaged does
            # not, but oversubscription is out of scope for the 36M case.
        return arr

    def unregister(self, name: str) -> None:
        """Remove a logical array (and its device residency)."""
        self.total_nominal_bytes -= self._arrays.pop(name).nominal_bytes
        self.epoch += 1
        if self.mode is DataMode.UNIFIED:
            assert self.um is not None
            self.um.unregister(name)
        elif name in self._present:
            self._present.discard(name)
            assert self.device_memory is not None
            if name in self.device_memory:
                self.device_memory.deallocate(name)

    def array(self, name: str) -> LogicalArray:
        """Look up a registered array."""
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"array {name!r} not registered in data environment") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> tuple[str, ...]:
        """All registered array names."""
        return tuple(self._arrays)

    def nominal_bytes(self, name: str) -> int:
        """Paper-scale byte size of one array."""
        return self.array(name).nominal_bytes

    def sizes(self, names: tuple[str, ...]) -> tuple[int | None, ...]:
        """Paper-scale byte size of each of ``names``; None for one that is
        not registered."""
        arrays = self._arrays
        return tuple(None if (a := arrays.get(n)) is None else a.nominal_bytes for n in names)

    # -- manual data directives (OpenACC enter/exit/update) ---------------

    def enter_data(self, name: str) -> list[Charge]:
        """``!$acc enter data copyin``: allocate + H2D copy."""
        self._require_manual("enter_data")
        arr = self.array(name)
        assert self.device_memory is not None and self.host_link is not None
        if name in self._present:
            raise AllocationError(f"array {name!r} already present on device")
        self.device_memory.allocate(name, arr.nominal_bytes)
        self._present.add(name)
        self.epoch += 1
        return [
            Charge(
                self.host_link.transfer_time(arr.nominal_bytes),
                _H2D,
                f"enter_data({name})",
            )
        ]

    def exit_data(self, name: str, *, copyout: bool = False) -> list[Charge]:
        """``!$acc exit data delete`` (or ``copyout``)."""
        self._require_manual("exit_data")
        arr = self.array(name)
        assert self.device_memory is not None and self.host_link is not None
        if name not in self._present:
            raise AllocationError(f"array {name!r} not present on device")
        self.device_memory.deallocate(name)
        self._present.discard(name)
        self.epoch += 1
        if copyout:
            return [
                Charge(
                    self.host_link.transfer_time(arr.nominal_bytes),
                    TimeCategory.D2H,
                    f"exit_data({name})",
                )
            ]
        return []

    def update_host(self, name: str, fraction: float = 1.0) -> list[Charge]:
        """``!$acc update host``: D2H copy of a fraction of the array."""
        self._require_manual("update_host")
        nbytes = self._fraction_bytes(name, fraction)
        assert self.host_link is not None
        return [Charge(self.host_link.transfer_time(nbytes), TimeCategory.D2H, f"update_host({name})")]

    def update_device(self, name: str, fraction: float = 1.0) -> list[Charge]:
        """``!$acc update device``: H2D copy of a fraction of the array."""
        self._require_manual("update_device")
        nbytes = self._fraction_bytes(name, fraction)
        assert self.host_link is not None
        return [Charge(self.host_link.transfer_time(nbytes), TimeCategory.H2D, f"update_device({name})")]

    def is_present(self, name: str) -> bool:
        """OpenACC ``present(name)`` check (manual mode only)."""
        return name in self._present

    def _require_manual(self, what: str) -> None:
        if self.mode is not _MANUAL:
            raise RuntimeError(f"{what} is a manual-data directive; mode is {self.mode.value}")

    def _fraction_bytes(self, name: str, fraction: float) -> float:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        return self.array(name).nominal_bytes * fraction

    # -- kernel / host access semantics ------------------------------------

    def kernel_touches(self, spec: KernelSpec) -> tuple[tuple[str, int], ...]:
        """The ``(array, bytes)`` device touches a launch of ``spec`` makes.

        Pure while :attr:`epoch` stands still, so engines price it once.
        MANUAL: every touched array must be present (``default(present)``
        semantics, SIV-C) -- missing arrays are a programming error, exactly
        the failure mode the paper keeps ``default(present)`` to catch; no
        touch costs anything. UNIFIED: each array is touched through the
        paging engine on every launch. CPU: nothing.
        """
        if self.mode is DataMode.CPU:
            return ()
        if self.mode is DataMode.MANUAL:
            missing = [a for a in spec.arrays if a not in self._present]
            if missing:
                raise AllocationError(
                    f"kernel {spec.name!r} touched arrays not present on device: {missing}"
                )
            return ()
        return tuple(
            (name, int(self.array(name).nominal_bytes * spec.work_fraction))
            for name in spec.arrays
        )

    def prepare_kernel(self, spec: KernelSpec) -> list[Charge]:
        """Residency cost of launching ``spec`` on the device: checks
        presence (MANUAL) or faults host-resident pages in over PCIe
        (UNIFIED), per :meth:`kernel_touches`."""
        touches = self.kernel_touches(spec)
        if not touches:
            return []
        assert self.um is not None
        charges: list[Charge] = []
        for name, nbytes in touches:
            dt = self.um.touch_device(name, nbytes)
            if dt > 0:
                charges.append(Charge(dt, TimeCategory.UM_FAULT, f"fault_in({name})"))
        return charges

    def host_access(self, name: str, nbytes: float | None = None) -> list[Charge]:
        """Host-side touch of an array (MPI library, setup code).

        MANUAL mode: free for MPI (CUDA-aware MPI reads device buffers) --
        explicit ``update_host`` is the paid path. UNIFIED: pages migrate
        device->host.
        """
        if self.mode is not DataMode.UNIFIED:
            return []
        assert self.um is not None
        arr = self.array(name)
        n = int(arr.nominal_bytes if nbytes is None else nbytes)
        dt = self.um.touch_host(name, n)
        if dt > 0:
            return [Charge(dt, TimeCategory.UM_FAULT, f"fault_out({name})")]
        return []
