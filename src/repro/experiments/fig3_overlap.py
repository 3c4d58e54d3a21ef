"""Fig. 3 ablation: Code 1's bars under overlapped halo exchanges.

Beyond the paper. ``sync`` is the paper's bulk-synchronous exchange;
``overlap`` splits every halo-consuming stencil into interior + boundary
shell and hides the exchange under the interior pass; ``overlap+fusion``
additionally collapses independent plain kernels across region
boundaries. All three produce bit-identical states -- only the cost
moves. Code 1 only: the original OpenACC version is the one with async
queues to overlap on.
"""

from __future__ import annotations

from dataclasses import replace

from repro.codes import CodeVersion
from repro.perf.breakdown import RunBreakdown, measure_breakdown
from repro.perf.calibration import Calibration, PAPER_CALIBRATION

OVERLAP_MODES: tuple[tuple[str, dict], ...] = (
    ("sync", {}),
    ("overlap", {"halo_overlap": True}),
    ("overlap+fusion", {"halo_overlap": True, "cross_region_fusion": True}),
)
RANKS = (1, 2, 4, 8)


def run(
    calibration: Calibration = PAPER_CALIBRATION,
) -> dict[tuple[str, int], RunBreakdown]:
    """One breakdown per (mode, GPU count)."""
    out = {}
    plans: dict = {}  # fusion re-prices the overlapped stream
    for mode, overrides in OVERLAP_MODES:
        cal = replace(calibration, **overrides)
        for n in RANKS:
            out[(mode, n)] = measure_breakdown(
                CodeVersion.A, n, calibration=cal, plans=plans
            )
    return out


def section(ab: dict[tuple[str, int], RunBreakdown]) -> list[str]:
    out = [
        "Beyond-paper study (`--halo-overlap` / `--fuse-regions`): the same"
        " Code 1 bars when halo exchanges run on a detached communication"
        " timeline under split interior/boundary stencils, and when the"
        " cross-region fusion window additionally collapses independent"
        " plain kernels. States are bit-identical across all three modes"
        " (asserted in `tests/mas/test_halo_overlap_model.py`); only the"
        " cost accounting moves.\n",
        "| mode | " + " | ".join(f"{n} GPU" for n in RANKS) + " |",
        "|---|" + "---|" * len(RANKS),
    ]
    for mode, _ in OVERLAP_MODES:
        cells = []
        for n in RANKS:
            b = ab[(mode, n)]
            cells.append(f"{b.wall_minutes:.1f} min ({b.mpi_fraction * 100:.1f}% MPI)")
        out.append(f"| {mode} | " + " | ".join(cells) + " |")
    sync8 = ab[("sync", 8)]
    over8 = ab[("overlap", 8)]
    out.append(
        f"\nAt 8 GPUs the MPI share falls from {sync8.mpi_fraction * 100:.1f}%"
        f" (sync, paper regime) to {over8.mpi_fraction * 100:.1f}% overlapped --"
        " the exchange rides under the interior stencils, and what remains is"
        " the unhidden residual plus posting overhead. Fusion then trims"
        " launch overhead on top (its effect grows with rank count as local"
        " kernels shrink)."
    )
    return out
