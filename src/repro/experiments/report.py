"""EXPERIMENTS.md generator: paper-vs-measured for every table and figure.

Run ``repro report`` (``python -m repro.experiments.report``) to
regenerate EXPERIMENTS.md from scratch: it executes every experiment with
the full paper calibration, in well under a minute. Everything in the file
is on the simulated clock or an exact count, so a second run writes the
same bytes; host-clock numbers live in ``python3 -m bench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.codes import CodeVersion, GPU_VERSIONS, runtime_config_for, version_info
from repro.experiments.fig1 import render_fig1, run_fig1
from repro.experiments.fig2 import PAPER_WALL, run_fig2
from repro.experiments.fig3 import (
    PAPER_BARS,
    run_fig3,
    run_fig3_overlap_ablation,
)
from repro.experiments.fig4 import run_fig4
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import PAPER_CENSUS, run_table2
from repro.experiments.table3 import PAPER_TABLE3, run_table3
from repro.fortran.directives import DirectiveKind
from repro.mas.model import MasModel, ModelConfig

HEADER = """\
# EXPERIMENTS -- paper vs measured

Regenerated, every section, by `repro report` (`python -m
repro.experiments.report`); the shape claims of each section are asserted
by the tier-1 tests under `tests/experiments/`. Only simulated-clock numbers
and exact counts appear here; host-clock numbers are `python3 -m bench`'s.
All simulated wall-clock numbers come from the calibrated machine model of
`repro/perf/calibration.py`; the calibration's provenance and the fitted
constants are documented there. "Exact" below means equality by
construction + transformation, not tuning of the reported number itself.

Reading guide: the reproduction's *contract* (DESIGN.md S2) is that shapes
hold -- who wins, by roughly what factor, where crossovers fall. Absolute
minutes are calibrated anchors (Code 1 at 1 GPU for the GPU runs; Code 1
at 1 node for the CPU runs) plus model-predicted everything else.
"""


def _pct(measured: float, paper: float) -> str:
    return f"{(measured - paper) / paper * 100:+.1f}%"


def _fig1(out: list[str]) -> None:
    f1 = run_fig1()
    out.append(
        "The paper's Fig. 1 shows temperature cuts of the coronal"
        " background run; ours come from the laptop-scale relaxation"
        f" (qualitative): heated corona = {f1.corona_heated},"
        f" max |div B| = {f1.diagnostics['max_divb']:.1e}.\n"
    )
    out.append("```\n" + render_fig1(f1) + "\n```")


def _table1(out: list[str]) -> None:
    out.append("| Version | total lines (paper) | measured | `!$acc` (paper) | measured |")
    out.append("|---|---|---|---|---|")
    for row in run_table1():
        out.append(
            f"| {row.tag} | {row.paper_total_lines} | {row.total_lines} |"
            f" {row.paper_acc_lines or 0} | {row.acc_lines} |"
        )
    out.append(
        "\nEvery row matches the paper exactly: the synthetic codebase is"
        " constructed to Table II's census, and Codes 0/2-6 are *derived* by"
        " the transformation passes of `repro.fortran.transforms`."
    )


def _table2(out: list[str]) -> None:
    census = run_table2()
    out.append("| directive type | paper | measured |")
    out.append("|---|---|---|")
    for kind in DirectiveKind:
        out.append(f"| {kind.value} | {PAPER_CENSUS[kind]} | {census[kind]} |")
    out.append(f"| **total** | **1458** | **{sum(census.values())}** |")


def _table3(out: list[str]) -> None:
    t3 = run_table3()
    out.append("| nodes | code | paper | measured | delta |")
    out.append("|---|---|---|---|---|")
    for (nodes, version), paper in PAPER_TABLE3.items():
        m = t3.value(nodes, version)
        out.append(
            f"| {nodes} | {version_info(version).tag} | {paper:.2f} | {m:.2f} |"
            f" {_pct(m, paper)} |"
        )
    out.append(
        "\nThe paper's headline holds: the DC version (Code 2) runs"
        " identically to the original on CPUs. Deviation-by-determinism: our"
        " simulator gives *exactly* equal values for Codes 1 and 2 on CPU,"
        " where the paper's 0.01-0.06 min differences are run-to-run noise."
    )


def _fig2(out: list[str]) -> None:
    f2 = run_fig2()
    out.append("| code | 1 GPU | 2 GPU | 4 GPU | 8 GPU | paper@1 | paper@8 | d@1 | d@8 |")
    out.append("|---|---|---|---|---|---|---|---|---|")
    for v in GPU_VERSIONS:
        s = f2.series[v]
        p1, p8 = PAPER_WALL[v][1], PAPER_WALL[v][8]
        out.append(
            f"| {version_info(v).tag} | {s.wall(1):.1f} | {s.wall(2):.1f} |"
            f" {s.wall(4):.1f} | {s.wall(8):.1f} | {p1} | {p8} |"
            f" {_pct(s.wall(1), p1)} | {_pct(s.wall(8), p8)} |"
        )
    out.append(
        "\nShape checks (all hold): Code 1 fastest everywhere; Codes 1/2/6"
        " super-scale at 2-4 GPUs and dip below ideal in the last doubling;"
        " UM codes (3/4/5) are ~1.3x slower at 1 GPU and ~3x at 8; the"
        f" zero-directive Code 5 slowdown is {f2.slowdown_vs_code1(CodeVersion.D2XU, 1):.2f}x"
        f" at 1 GPU and {f2.slowdown_vs_code1(CodeVersion.D2XU, 8):.2f}x at 8"
        " (paper: 'between 1.25x and 3x')."
    )


def _fig3(out: list[str]) -> None:
    f3 = run_fig3()
    for n in (1, 8):
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

    # ---- Fig. 3 ablation: PCG variants -----------------------------------------------------
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
    from dataclasses import replace as _replace

    from repro.perf.breakdown import measure_breakdown
    from repro.perf.calibration import PAPER_CALIBRATION

    for variant in ("classic", "ca", "pipelined"):
        b = measure_breakdown(
            CodeVersion.A, 8,
            calibration=_replace(PAPER_CALIBRATION, pcg_variant=variant),
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


def _fig3_overlap(out: list[str]) -> None:
    out.append(
        "Beyond-paper study (`--halo-overlap` / `--fuse-regions`): the same"
        " Code 1 bars when halo exchanges run on a detached communication"
        " timeline under split interior/boundary stencils, and when the"
        " cross-region fusion window additionally collapses independent"
        " plain kernels. States are bit-identical across all three modes"
        " (asserted in `tests/mas/test_halo_overlap_model.py`); only the"
        " cost accounting moves.\n"
    )
    ablation_ranks = (1, 2, 4, 8)
    ab = run_fig3_overlap_ablation(ablation_ranks)
    out.append("| mode | " + " | ".join(f"{n} GPU" for n in ablation_ranks) + " |")
    out.append("|---|" + "---|" * len(ablation_ranks))
    for mode in ("sync", "overlap", "overlap+fusion"):
        cells = []
        for n in ablation_ranks:
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


def _critpath(out: list[str]) -> None:
    out.append(
        "The critical-path observatory (`repro critpath`,"
        " `repro.obs.critpath`) merges every rank's span/event stream --"
        " including the detached communication clocks of overlapped"
        " exchanges -- into one event graph and walks the path that gated"
        " the wall clock, attributing each segment to a blame group"
        " (compute / halo / collectives / launch / memory / idle). Running"
        " Code 1 under four communication schedules shows the path"
        " migrating off MPI as the overlap optimizations stack:\n"
    )
    from repro.experiments.critpath_ablation import (
        render_critpath_ablation,
        run_critpath_ablation,
    )

    ab_cp = run_critpath_ablation()
    out.append("```\n" + render_critpath_ablation(ab_cp) + "\n```")
    sync_halo = ab_cp.blame_share("sync", "halo")
    best_halo = ab_cp.blame_share("overlap+fusion", "halo")
    out.append(
        f"\nHalo blame on the critical path falls from"
        f" {sync_halo * 100:.1f}% (sync) to {best_halo * 100:.1f}%"
        " (overlap+fusion): the exchange is no longer what the wall clock"
        " waits on. `pipelined` additionally removes the collective"
        " rendezvous from the path (the fused allreduce completes under"
        " the matvec), trading it for the extra recurrence compute --"
        " i.e. at this scale the critical path is compute, and the"
        " roofline table (`repro critpath DIR`) says how close to"
        " speed-of-light that compute already is."
    )


def _fig4(out: list[str]) -> None:
    f4 = run_fig4()
    out.append(
        f"* per-iteration time: manual {f4.iteration_manual * 1e3:.3f} ms,"
        f" unified memory {f4.iteration_um * 1e3:.3f} ms ->"
        f" **{f4.um_slowdown:.2f}x slower under UM** (paper: ~3x).\n"
        f"* manual window: {f4.manual_p2p_events} GPU peer-to-peer messages,"
        f" {f4.manual_staged_events} host-staged transfers.\n"
        f"* UM window: {f4.um_staged_events} CPU<->GPU page-migration events"
        " -- the 'multiple CPU-GPU transfers' of the paper's bottom lane.\n"
    )
    out.append("```\n" + f4.timeline_manual + "\n\n" + f4.timeline_um + "\n```")


def _ensemble_counts(members: int) -> tuple[int, int]:
    """Kernel launches and halo messages of one batched run at the
    ensemble section's configuration (both summed over ranks)."""
    model = MasModel(
        ModelConfig(shape=(8, 6, 12), nominal_shape=(150, 300, 96), num_ranks=2,
                    pcg_iters=4, sts_stages=3, ensemble_size=members),
        runtime_config_for(CodeVersion.A),
    )
    model.run(3)
    return sum(rt.stats.launches for rt in model.ranks), model.halo.messages


def _ensemble(out: list[str]) -> None:
    out.append(
        "A parameter sweep (`repro sweep`, docs/OBSERVABILITY.md) advances B"
        " ensemble members in ONE batched model: every state and work array"
        " carries a leading member axis, so each kernel launch, fused"
        " reduction, and halo message moves all B members at once. The member"
        " axis is a pure layout transform -- a batched run reproduces its B"
        " serial runs bitwise (`tests/mas/test_ensemble.py`) -- so the whole"
        " gain is amortization. Code 1, 3 steps of (8, 6, 12) on 2 ranks,"
        " per-member nominal grid (150, 300, 96), 4 PCG iterations, 3 STS"
        " stages:\n"
    )
    out.append("| B | launches | launches/member | halo msgs |")
    out.append("|---|---|---|---|")
    for members in (1, 2, 4, 8):
        launches, messages = _ensemble_counts(members)
        out.append(
            f"| {members} | {launches} | {launches / members:.1f} | {messages} |"
        )
    out.append(
        "\nThe launch and MPI message counts do not move with B at all, so"
        " launches per member fall exactly as 1/B: a batched kernel's fixed"
        " launch cost is paid once for the whole batch (the same effect that"
        " makes the paper's kernel-launch overhead reduction matter)."
        " Simulated per-kernel *bytes* scale by B, so simulated walls grow"
        " ~B-fold -- the win is real-time throughput and launch/message"
        " economy, not simulated seconds. Real-time member throughput is a"
        " host-clock number and is tracked where those are: `work_per_s` of"
        " the `ensemble_b8` workload (`python3 -m bench --workload"
        " ensemble_b8`)."
    )


#: The report, in order: (``## `` heading, what appends the section's lines).
SECTIONS = (
    ("Fig. 1 -- test-case solution visualization", _fig1),
    ("Table I -- code version summary (exact)", _table1),
    ("Table II -- OpenACC directive census of Code 1 (exact)", _table2),
    ("Table III -- CPU wall clock, Expanse EPYC nodes (minutes)", _table3),
    ("Fig. 2 -- wall clock vs GPU count (minutes)", _fig2),
    ("Fig. 3 -- MPI / non-MPI split (minutes)", _fig3),
    ("Fig. 3 ablation -- overlapped halo exchange (Code 1)", _fig3_overlap),
    ("Critical-path blame migration (beyond the paper)", _critpath),
    ("Fig. 4 -- viscosity-solver timeline (8 GPUs)", _fig4),
    ("Ensemble sweep ablation -- member batching (beyond the paper)", _ensemble),
)


def build_report() -> str:
    out = [HEADER]
    for heading, section in SECTIONS:
        out.append(f"\n## {heading}\n")
        section(out)
    return "\n".join(out) + "\n"


def main(path: str | None = None) -> None:
    """Regenerate EXPERIMENTS.md (default: repo root next to src/)."""
    target = Path(path) if path else Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
    text = build_report()
    target.write_text(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
