"""Fig. 3: MPI vs non-MPI wall-clock split at 1 and 8 GPUs.

MPI time follows the paper's definition: all MPI calls, buffer
initialization/loading/unloading, and MPI waiting from load imbalance.
The headline mechanisms: manual-data codes' MPI share *falls* with GPU
count (NVLink P2P), UM codes' MPI time stays huge and roughly constant
(page migration through the host on every exchange).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codes import CodeVersion, GPU_VERSIONS, version_info
from repro.perf.breakdown import RunBreakdown, measure_breakdown
from repro.perf.calibration import Calibration, PAPER_CALIBRATION
from repro.util.ascii_plot import AsciiBarChart
from repro.util.tables import Table

#: Paper bars: (wall, wall - MPI) minutes at 1 and 8 GPUs.
PAPER_BARS = {
    1: {
        CodeVersion.A: (200.9, 171.9),
        CodeVersion.AD: (206.9, 177.8),
        CodeVersion.ADU: (268.9, 227.5),
        CodeVersion.AD2XU: (270.7, 229.5),
        CodeVersion.D2XU: (273.0, 230.9),
        CodeVersion.D2XAD: (213.0, 183.5),
    },
    8: {
        CodeVersion.A: (23.0, 21.0),
        CodeVersion.AD: (25.3, 23.0),
        CodeVersion.ADU: (69.6, 29.7),
        CodeVersion.AD2XU: (74.1, 32.5),
        CodeVersion.D2XU: (67.6, 31.2),
        CodeVersion.D2XAD: (27.4, 23.9),
    },
}

GPU_PANELS = (1, 8)


@dataclass(frozen=True)
class Fig3Result:
    """Breakdown per (gpu count, version)."""

    bars: dict[tuple[int, CodeVersion], RunBreakdown]

    def breakdown(self, num_gpus: int, version: CodeVersion) -> RunBreakdown:
        """One bar."""
        return self.bars[(num_gpus, version)]

    def um_mpi_blowup(self, num_gpus: int) -> float:
        """UM MPI time over manual MPI time (Code 3 vs Code 1)."""
        um = self.breakdown(num_gpus, CodeVersion.ADU).mpi_minutes
        manual = self.breakdown(num_gpus, CodeVersion.A).mpi_minutes
        return um / manual


def run_fig3(calibration: Calibration = PAPER_CALIBRATION) -> Fig3Result:
    """Measure all twelve bars."""
    bars = {}
    plans: dict = {}
    for n in GPU_PANELS:
        for v in GPU_VERSIONS:
            bars[(n, v)] = measure_breakdown(v, n, calibration=calibration, plans=plans)
    return Fig3Result(bars)


def render_fig3(result: Fig3Result) -> str:
    """Stacked bar charts plus paper-vs-measured table."""
    out = []
    for n in GPU_PANELS:
        chart = AsciiBarChart(
            title=f"Fig. 3 -- run time split on {n} A100 GPU(s)", unit="min"
        )
        for v in GPU_VERSIONS:
            b = result.breakdown(n, v)
            chart.add_group(
                version_info(v).tag,
                [("wall-mpi", b.non_mpi_minutes), ("mpi", b.mpi_minutes)],
            )
        out.append(chart.render())

        t = Table(
            ["Code", "wall-mpi", "(paper)", "mpi", "(paper)", "wall", "(paper)"],
            title=f"{n} GPU(s): measured vs paper (minutes)",
        )
        for v in GPU_VERSIONS:
            b = result.breakdown(n, v)
            pw, pnm = PAPER_BARS[n][v]
            t.add_row(
                [
                    version_info(v).tag,
                    b.non_mpi_minutes,
                    pnm,
                    b.mpi_minutes,
                    pw - pnm,
                    b.wall_minutes,
                    pw,
                ]
            )
        out.append(t.render())
    return "\n\n".join(out)


def run(
    *,
    pcg: str = PAPER_CALIBRATION.pcg_variant,
    precond: str = PAPER_CALIBRATION.pcg_precond,
    halo_overlap: bool = False,
    fuse_regions: bool = False,
) -> Fig3Result:
    """The bars under the paper calibration with the solver and exchange
    schedule of ``repro fig3``'s flags."""
    return run_fig3(
        replace(
            PAPER_CALIBRATION,
            pcg_variant=pcg,
            pcg_precond=precond,
            halo_overlap=halo_overlap,
            cross_region_fusion=fuse_regions,
        )
    )


render = render_fig3


def csv(result: Fig3Result) -> tuple[list[str], list[list]]:
    return (
        ["num_gpus", "version", "wall_minutes", "mpi_minutes"],
        [
            [n, v.name, result.breakdown(n, v).wall_minutes, result.breakdown(n, v).mpi_minutes]
            for n in GPU_PANELS
            for v in GPU_VERSIONS
        ],
    )


def section(f3: Fig3Result) -> list[str]:
    """Both panels, then the PCG variant ablation (three more 8-GPU
    breakdowns of Code 1, measured here)."""
    out = []
    for n in GPU_PANELS:
        out.append(f"\n### {n} GPU(s)\n")
        out.append("| code | wall-MPI (paper) | measured | MPI (paper) | measured |")
        out.append("|---|---|---|---|---|")
        for v in GPU_VERSIONS:
            b = f3.breakdown(n, v)
            pw, pnm = PAPER_BARS[n][v]
            out.append(
                f"| {version_info(v).tag} | {pnm} | {b.non_mpi_minutes:.1f} |"
                f" {pw - pnm:.1f} | {b.mpi_minutes:.1f} |"
            )
    out.append(
        f"\nUM MPI blow-up vs manual: {f3.um_mpi_blowup(1):.1f}x at 1 GPU,"
        f" {f3.um_mpi_blowup(8):.1f}x at 8 GPUs (paper: 1.4x and 20x)."
        " Known deviation: our UM MPI bar at 1 GPU overshoots the paper"
        " (~54 vs 41.4 min) -- the page-migration cost model is calibrated"
        " to the 8-GPU bar, where the effect dominates the paper's story."
    )
    out.append("\n### PCG variant ablation -- MPI share at 8 GPUs (beyond the paper)\n")
    out.append(
        "The paper's bars use classic Jacobi-PCG; the calibrated default is"
        " now the Chronopoulos-Gear communication-avoiding `ca` variant"
        " (`repro.mas.pcg`; classic and the Ghysels-Vanroose `pipelined`"
        " rebuild stay selectable). The variants change only the"
        " *communication schedule*, not the answer (reproduced to <= 1e-10),"
        " so the fig3 harness doubles as an ablation of the solver's"
        " allreduce latencies:\n"
    )
    out.append(
        "```bash\n"
        "python -m repro fig3 --pcg classic        # the paper's solver\n"
        "python -m repro fig3 --pcg ca             # default: 1 fused allreduce/iter\n"
        "python -m repro fig3 --pcg pipelined      # ... overlapped with compute\n"
        "```\n"
    )
    out.append("Measured Code 1 (A) at 8 GPUs:\n")
    out.append("| variant | wall (min) | MPI (min) | MPI share |")
    out.append("|---|---|---|---|")
    for variant in ("classic", "ca", "pipelined"):
        b = measure_breakdown(
            CodeVersion.A, 8,
            calibration=replace(PAPER_CALIBRATION, pcg_variant=variant),
        )
        out.append(
            f"| {variant} | {b.wall_minutes:.1f} | {b.mpi_minutes:.1f} |"
            f" {b.mpi_fraction * 100:.1f}% |"
        )
    out.append(
        "\n`ca` fuses classic's three scalar allreduces per iteration into"
        " one vector reduction (3x fewer latencies -> lower wall *and* lower"
        " MPI); `pipelined` additionally hides the remaining reduction behind"
        " the preconditioner+matvec, buying the lowest MPI share at the cost"
        " of the extra recurrence kernels pipelined PCG performs (its wall"
        " grows -- the trade only pays at latency-dominated scale, exactly as"
        " in the literature). Per-variant allreduce counts are tracked by"
        " `pcg_allreduce_calls_total{variant}` (see docs/OBSERVABILITY.md)"
        " and asserted by `tests/mas/test_pcg_variants.py` and the CI"
        " `perf-smoke` job."
    )
    return out
