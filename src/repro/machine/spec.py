"""Hardware specification dataclasses.

Specs are immutable value objects; behaviour (allocation, paging, cost
evaluation) lives in the device/node model classes that consume them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GpuSpec:
    """Static description of one GPU.

    ``mem_bandwidth`` is the peak theoretical HBM bandwidth in bytes/s;
    ``stream_efficiency`` is the fraction of peak a well-tuned memory-bound
    stencil kernel sustains (BabelStream-like, ~0.85 on A100).
    """

    name: str
    mem_bytes: int
    mem_bandwidth: float
    stream_efficiency: float
    kernel_launch_latency: float
    flops_fp64: float
    num_sms: int

    def __post_init__(self) -> None:
        if self.mem_bytes <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("GPU memory size and bandwidth must be positive")
        if not 0 < self.stream_efficiency <= 1:
            raise ValueError("stream_efficiency must be in (0, 1]")
        if self.kernel_launch_latency < 0:
            raise ValueError("kernel launch latency cannot be negative")


@dataclass(frozen=True, slots=True)
class CpuSpec:
    """Static description of one CPU *node* (all sockets combined)."""

    name: str
    sockets: int
    cores_per_socket: int
    mem_bandwidth: float
    stream_efficiency: float

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ValueError("socket/core counts must be positive")
        if self.mem_bandwidth <= 0:
            raise ValueError("memory bandwidth must be positive")
        if not 0 < self.stream_efficiency <= 1:
            raise ValueError("stream_efficiency must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """A point-to-point link: latency (s) plus bandwidth (bytes/s)."""

    name: str
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")

    def transfer_time(self, nbytes: float) -> float:
        """Alpha-beta cost of moving ``nbytes`` over this link."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth
