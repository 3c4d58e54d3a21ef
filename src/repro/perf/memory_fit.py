"""Problem-size vs GPU-memory analysis.

The paper chose the 36M-cell resolution "to represent a medium-sized case
that can also fit into the memory of a single NVIDIA A100 (40GB)" (SV-A).
This module makes that sizing decision executable: estimate the device
footprint of a resolution under the MAS memory model (state + work arrays
+ the full CORHEL physics complement + halo buffers) and search for the
largest resolution that fits a GPU-count/device combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.gpu import A100_40GB
from repro.machine.spec import GpuSpec
from repro.mas.runtime_side import WORK_ARRAYS
from repro.mas.state import ALL_FIELDS
from repro.mpi.decomp import Decomposition3D
from repro.util.units import fmt_bytes

#: Arrays per rank in the full model (see RuntimeSide.register_arrays).
STATE_ARRAYS = len(ALL_FIELDS)
MODEL_WORK_ARRAYS = len(WORK_ARRAYS)
#: The full CORHEL physics complement (DESIGN.md: MAS holds ~100 arrays).
EXTRA_MODEL_ARRAYS = 67
ELEMENT_BYTES = 8
HALO_BUFFERS_PER_AXIS = 4  # send/recv x two directions


@dataclass(frozen=True, slots=True)
class MemoryEstimate:
    """Per-rank device footprint of one resolution."""

    shape: tuple[int, int, int]
    num_ranks: int
    bytes_per_rank: int
    capacity: int

    @property
    def fits(self) -> bool:
        """True if every rank's footprint fits its device."""
        return self.bytes_per_rank <= self.capacity

    @property
    def utilization(self) -> float:
        """Fraction of device memory used by the worst rank."""
        return self.bytes_per_rank / self.capacity

    @property
    def total_cells(self) -> int:
        """Global cell count."""
        return self.shape[0] * self.shape[1] * self.shape[2]


def estimate(
    shape: tuple[int, int, int],
    num_ranks: int = 1,
    *,
    gpu: GpuSpec = A100_40GB,
    extra_arrays: int = EXTRA_MODEL_ARRAYS,
) -> MemoryEstimate:
    """Device-memory footprint of a resolution on ``num_ranks`` GPUs."""
    if any(n < num_ranks and n < 4 for n in shape):
        raise ValueError(f"shape {shape} too small for {num_ranks} ranks")
    dec = Decomposition3D(shape, num_ranks)
    worst = 0
    for r in dec.iter_ranks():
        cells = dec.local_cells(r)
        ls = dec.local_shape(r)
        n_arrays = STATE_ARRAYS + MODEL_WORK_ARRAYS + extra_arrays
        array_bytes = n_arrays * cells * ELEMENT_BYTES
        halo_bytes = sum(
            HALO_BUFFERS_PER_AXIS * (cells // ls[axis]) * ELEMENT_BYTES
            for axis in range(3)
        )
        worst = max(worst, array_bytes + halo_bytes)
    return MemoryEstimate(
        shape=shape, num_ranks=num_ranks, bytes_per_rank=worst, capacity=gpu.mem_bytes
    )


def max_cells_that_fit(
    num_ranks: int = 1,
    *,
    gpu: GpuSpec = A100_40GB,
    aspect: tuple[float, float, float] = (150.0, 300.0, 800.0),
    extra_arrays: int = EXTRA_MODEL_ARRAYS,
) -> MemoryEstimate:
    """Largest grid (of the paper's aspect ratio) fitting the GPUs.

    Bisects a scale factor applied to ``aspect`` (the 36M-cell run's
    shape) until the per-rank footprint fills the device.
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")

    def shape_for(scale: float) -> tuple[int, int, int]:
        return tuple(max(4, round(a * scale)) for a in aspect)  # type: ignore[return-value]

    lo, hi = 0.01, 16.0
    # expand hi until it no longer fits
    while estimate(shape_for(hi), num_ranks, gpu=gpu, extra_arrays=extra_arrays).fits:
        hi *= 2
        if hi > 1e4:
            raise RuntimeError("search diverged: everything fits?")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if estimate(shape_for(mid), num_ranks, gpu=gpu, extra_arrays=extra_arrays).fits:
            lo = mid
        else:
            hi = mid
    return estimate(shape_for(lo), num_ranks, gpu=gpu, extra_arrays=extra_arrays)


def paper_case_fits_one_gpu() -> MemoryEstimate:
    """The paper's sizing claim: 36M cells fit one A100-40GB."""
    return estimate((150, 300, 800), 1)


GPU_COUNTS = (1, 2, 4, 8)


def run() -> tuple[MemoryEstimate, dict[int, MemoryEstimate]]:
    """The paper's case on one GPU, and the largest case per GPU count."""
    return paper_case_fits_one_gpu(), {n: max_cells_that_fit(n) for n in GPU_COUNTS}


def render(result: tuple[MemoryEstimate, dict[int, MemoryEstimate]]) -> str:
    paper, largest = result
    lines = [
        f"paper case {paper.shape} = {paper.total_cells / 1e6:.0f}M cells: "
        f"{fmt_bytes(paper.bytes_per_rank)} per GPU "
        f"({paper.utilization * 100:.0f}% of an A100-40GB) -> fits: {paper.fits}"
    ]
    for n, e in largest.items():
        lines.append(
            f"max case on {n} GPU(s): {e.shape} = {e.total_cells / 1e6:.0f}M cells "
            f"({e.utilization * 100:.0f}% of each device)"
        )
    return "\n".join(lines)


def section(result: tuple[MemoryEstimate, dict[int, MemoryEstimate]]) -> list[str]:
    return [
        'The paper sized its test case "to fit into the memory of a single'
        ' NVIDIA A100 (40GB)" (SV-A). `repro memfit` prices that case under'
        " the MAS memory model (state + work arrays + the full CORHEL"
        " complement + halo buffers) and bisects for the largest grid of the"
        " same aspect ratio that each GPU count holds:\n",
        "```\n" + render(result) + "\n```",
    ]
