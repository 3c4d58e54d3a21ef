"""MPI message transports: the crux of the paper's UM slowdown.

Three concrete transports:

* :class:`CudaAwareTransport` -- manual-data GPU codes (Codes 1, 2, 6):
  MPI receives device pointers; intra-node messages ride NVLink
  peer-to-peer. This is the top lane of Fig. 4.
* :class:`UnifiedMemoryTransport` -- UM codes (Codes 3, 4, 5): the MPI
  library touches managed buffers on the *host*, so the send buffer pages
  out (D2H), the wire copy happens host-side, and the receive buffer pages
  back in at the next kernel touch (H2D). Bottom lane of Fig. 4.
* :class:`CpuFabricTransport` -- CPU runs (Table III): plain host messages
  over shared memory / the fabric.

Each transport returns :class:`~repro.runtime.data_env.Charge` lists per
side so the halo engine can charge rank clocks; numerical payloads move via
numpy in the halo engine itself, identically for all transports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.machine.interconnect import Interconnect
from repro.machine.spec import LinkSpec
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import TimeCategory
from repro.runtime.data_env import Charge, DataEnvironment, DataMode


class TransportKind(enum.Enum):
    """Which data path MPI messages take."""

    CUDA_AWARE_P2P = "cuda_aware_p2p"
    UM_STAGED = "um_staged"
    CPU_FABRIC = "cpu_fabric"


@dataclass(frozen=True, slots=True)
class Transport:
    """Base transport; concrete subclasses implement the cost methods."""

    kind: TransportKind

    def check_buffer(self, env: DataEnvironment, buffer_name: str) -> None:
        """Refuse a staging buffer this transport cannot hand to MPI. Reads
        only what ``env.epoch`` guards, so a halo plan asks once, at build."""

    def send_charges(
        self, env: DataEnvironment, buffer_name: str, nbytes: int
    ) -> list[Charge]:
        """Cost on the sending rank of getting the buffer MPI-visible."""
        raise NotImplementedError

    def wire_time(self, nbytes: int, *, same_device: bool, same_node: bool = True) -> float:
        """Time the message spends on the wire / link.

        ``same_node`` distinguishes NVLink-reachable peers from ranks on
        other nodes (multi-node runs cross the fabric instead).
        """
        raise NotImplementedError

    def recv_charges(
        self, env: DataEnvironment, buffer_name: str, nbytes: int
    ) -> list[Charge]:
        """Cost on the receiving rank of landing the buffer."""
        raise NotImplementedError

    def staging_ticks(self, m, nbytes: int, side: str) -> tuple:
        """The ``(child, amount)`` ticks in ``m`` of ``side``'s charges for an
        ``nbytes`` message: none unless MPI stages through the host."""
        return ()


@dataclass(frozen=True, slots=True)
class CudaAwareTransport(Transport):
    """Device-pointer MPI over NVLink (manual data management)."""

    interconnect: Interconnect = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.interconnect is None:
            raise ValueError("CudaAwareTransport needs an interconnect")

    def check_buffer(self, env, buffer_name):
        if env.mode is not DataMode.MANUAL:
            raise ValueError("CUDA-aware MPI requires manual (device-resident) buffers")
        if not env.is_present(buffer_name):
            raise ValueError(f"buffer {buffer_name!r} not device-resident")

    def send_charges(self, env, buffer_name, nbytes):
        self.check_buffer(env, buffer_name)
        return []  # device pointer handed straight to MPI

    def wire_time(self, nbytes, *, same_device, same_node=True):
        if nbytes == 0:
            return 0.0
        if same_device:
            # Periodic wrap onto the same rank: device-to-device copy.
            return self.interconnect.peer.latency + nbytes / (
                self.interconnect.peer.bandwidth * 2
            )
        if not same_node:
            # GPUDirect RDMA over the fabric: no NVLink shortcut off-node.
            return self.interconnect.fabric.transfer_time(nbytes)
        return self.interconnect.p2p_time(nbytes)

    def recv_charges(self, env, buffer_name, nbytes):
        self.check_buffer(env, buffer_name)
        return []


@dataclass(frozen=True, slots=True)
class UnifiedMemoryTransport(Transport):
    """Managed-memory MPI: host library touches paged buffers.

    ``host_mpi_overhead`` is the extra host-side per-message cost (driver
    synchronization before the library may touch managed pages); calibrated
    against Fig. 3's UM MPI bars.
    """

    interconnect: Interconnect = None  # type: ignore[assignment]
    host_mpi_overhead: float = 30e-6
    #: Page-granularity amplification: managed memory migrates whole 2 MiB
    #: pages, and halo buffers packed from strided faces span many more
    #: pages than their payload. Fig. 4's "multiple CPU-GPU transfers" per
    #: exchange is this effect; calibrated in repro.perf.calibration.
    page_amplification: float = 8.0

    def __post_init__(self) -> None:
        if self.interconnect is None:
            raise ValueError("UnifiedMemoryTransport needs an interconnect")
        if self.host_mpi_overhead < 0:
            raise ValueError("host overhead cannot be negative")
        if self.page_amplification < 1.0:
            raise ValueError("page_amplification is a multiplier >= 1")

    def check_buffer(self, env, buffer_name):
        if env.mode is not DataMode.UNIFIED:
            raise ValueError("UM transport requires a unified data environment")

    def send_charges(self, env, buffer_name, nbytes):
        self.check_buffer(env, buffer_name)
        self._observe_staging(nbytes, "send")
        charges = [
            Charge(self.host_mpi_overhead, TimeCategory.MPI_TRANSFER, "um_mpi_sync")
        ]
        # The MPI library reads the send buffer on the host: pages migrate
        # device -> host, whole pages at a time.
        charges += [
            Charge(c.seconds, TimeCategory.MPI_TRANSFER, c.label)
            for c in env.host_access(buffer_name, int(nbytes * self.page_amplification))
        ]
        return charges

    def wire_time(self, nbytes, *, same_device, same_node=True):
        if nbytes == 0:
            return 0.0
        if not same_node:
            # pages are already host-resident; the message crosses the fabric
            return self.interconnect.fabric.transfer_time(nbytes)
        # Host-side copy between ranks' buffers (shared-memory transport).
        host_copy_bw = self.interconnect.host.bandwidth
        return self.interconnect.host.latency + nbytes / host_copy_bw

    def recv_charges(self, env, buffer_name, nbytes):
        self.check_buffer(env, buffer_name)
        self._observe_staging(nbytes, "recv")
        # MPI writes the receive buffer on the host; pages (if device
        # resident) must migrate out first, and will fault back in at the
        # next unpack kernel -- that fault is charged when the kernel launches.
        return [
            Charge(c.seconds, TimeCategory.MPI_TRANSFER, c.label)
            for c in env.host_access(buffer_name, int(nbytes * self.page_amplification))
        ]

    def staging_ticks(self, m, nbytes, side):
        counter = m.counter("um_staged_bytes_total",
                            "page-granular bytes staged through the host by UM MPI",
                            labelnames=("side",))
        return ((counter.labels(side=side), nbytes * self.page_amplification),)

    def _observe_staging(self, nbytes: int, side: str) -> None:
        """Count host-staged page traffic (the Fig. 4 UM pathology)."""
        tel = _telemetry()
        for child, amount in self.staging_ticks(tel.metrics, nbytes, side) if tel.enabled else ():
            child.inc(amount)


@dataclass(frozen=True, slots=True)
class CpuFabricTransport(Transport):
    """Host MPI for CPU runs: shared memory intra-node, fabric across."""

    fabric: LinkSpec = None  # type: ignore[assignment]
    #: Effective shared-memory copy bandwidth within a node.
    shm_bandwidth: float = 20e9

    def __post_init__(self) -> None:
        if self.fabric is None:
            raise ValueError("CpuFabricTransport needs a fabric link")
        if self.shm_bandwidth <= 0:
            raise ValueError("shared-memory bandwidth must be positive")

    def send_charges(self, env, buffer_name, nbytes):
        return []

    def wire_time(self, nbytes, *, same_device, same_node=True):
        if nbytes == 0:
            return 0.0
        if same_device or same_node:
            return nbytes / self.shm_bandwidth if same_device else self.fabric.transfer_time(nbytes)
        return self.fabric.transfer_time(nbytes)

    def recv_charges(self, env, buffer_name, nbytes):
        return []


def make_transport(
    kind: TransportKind,
    *,
    interconnect: Interconnect | None = None,
    fabric: LinkSpec | None = None,
    host_mpi_overhead: float = 30e-6,
    page_amplification: float = 8.0,
) -> Transport:
    """Factory keyed by kind, with paper-calibrated defaults."""
    if kind is TransportKind.CUDA_AWARE_P2P:
        if interconnect is None:
            raise ValueError("CUDA-aware transport needs an interconnect")
        return CudaAwareTransport(kind=kind, interconnect=interconnect)
    if kind is TransportKind.UM_STAGED:
        if interconnect is None:
            raise ValueError("UM transport needs an interconnect")
        return UnifiedMemoryTransport(
            kind=kind,
            interconnect=interconnect,
            host_mpi_overhead=host_mpi_overhead,
            page_amplification=page_amplification,
        )
    if kind is TransportKind.CPU_FABRIC:
        if fabric is None:
            raise ValueError("CPU transport needs a fabric link")
        return CpuFabricTransport(kind=kind, fabric=fabric)
    raise ValueError(f"unknown transport kind {kind}")
