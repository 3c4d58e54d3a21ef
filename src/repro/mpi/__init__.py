"""Simulated MPI: domain decomposition, halo exchange, collectives.

All GPU runs in the paper are node-local (1-8 ranks, 1 GPU each); CPU runs
span 1-8 Expanse nodes. Ranks here are simulated SPMD contexts executed in
sequence with bulk-synchronous time semantics: every rank owns a clock, and
exchanges/collectives synchronize clocks, charging wait time to the
laggards' peers.

The transport layer is where the paper's UM story lives: manual-data codes
pass device pointers to CUDA-aware MPI (NVLink peer-to-peer); UM codes let
the host-side MPI library touch managed buffers, dragging pages over PCIe
both ways on every exchange (Fig. 4).
"""

from repro.mpi.decomp import Decomposition3D, dims_create
from repro.mpi.transport import (
    CpuFabricTransport,
    CudaAwareTransport,
    Transport,
    TransportKind,
    UnifiedMemoryTransport,
    make_transport,
)
from repro.mpi.halo import HaloExchanger
from repro.mpi.collectives import allreduce_sum, allreduce_min, barrier

__all__ = [
    "Decomposition3D",
    "dims_create",
    "Transport",
    "TransportKind",
    "CudaAwareTransport",
    "UnifiedMemoryTransport",
    "CpuFabricTransport",
    "make_transport",
    "HaloExchanger",
    "allreduce_sum",
    "allreduce_min",
    "barrier",
]
