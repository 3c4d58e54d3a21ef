"""Beyond-paper study: where does the critical path live, per optimization?

Fig. 3 answers "how much MPI time does each code version pay"; this
ablation answers the sharper question the critical-path observatory
makes answerable: *which resource actually gates the wall clock*. The
same Code 1 model runs under four communication schedules and each run's
merged per-rank event graph is walked by
:func:`repro.obs.critpath.analyze_session`:

* ``sync`` -- blocking halo exchanges, classic PCG (the paper's regime);
* ``overlap`` -- halo exchanges post on detached communication clocks and
  ride under the split interior stencils;
* ``overlap+fusion`` -- plus cross-region launch fusion;
* ``pipelined`` -- plus pipelined PCG (the fused allreduce overlaps the
  matvec).

The expected migration -- halo/collective blame shrinking and compute
blame absorbing the path -- is asserted (loosely) by
``tests/experiments/test_ablations.py`` and rendered into EXPERIMENTS.md
by ``repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codes import CodeVersion, runtime_config_for
from repro.obs.critpath import BLAME_GROUPS, CritPathResult, analyze_session
from repro.obs.telemetry import Telemetry, activate, deactivate
from repro.util.tables import Table

#: Mode name -> (halo_overlap, cross_region_fusion, pcg_variant).
MODES: dict[str, tuple[bool, bool, str]] = {
    "sync": (False, False, "classic"),
    "overlap": (True, False, "classic"),
    "overlap+fusion": (True, True, "classic"),
    "pipelined": (True, True, "pipelined"),
}


@dataclass(frozen=True)
class AblationResult:
    """Critical-path analysis of every mode (one model each)."""

    num_ranks: int
    steps: int
    results: dict[str, CritPathResult]

    def blame_share(self, mode: str, group: str) -> float:
        """Share of the critical path one blame group holds in ``mode``."""
        return self.results[mode].blame_share(group)


def _run_mode(
    mode: str,
    *,
    num_ranks: int,
    steps: int,
    shape: tuple[int, int, int],
    pcg_iters: int,
    sts_stages: int,
) -> CritPathResult:
    from repro.mas.model import MasModel, ModelConfig

    halo_overlap, fuse, pcg_variant = MODES[mode]
    rt_cfg = runtime_config_for(CodeVersion.A)
    if fuse:
        rt_cfg = replace(rt_cfg, cross_region_fusion=True)
    tel = Telemetry(None)  # in-memory session: profiler + spans, no files
    activate(tel)
    try:
        model = MasModel(
            ModelConfig(
                shape=shape,
                num_ranks=num_ranks,
                pcg_iters=pcg_iters,
                pcg_variant=pcg_variant,
                sts_stages=sts_stages,
                halo_overlap=halo_overlap,
            ),
            rt_cfg,
        )
        for _ in model.run(steps):
            pass
    finally:
        deactivate(tel)
    results = analyze_session(tel)
    (result,) = results.values()
    return result


def run_critpath_ablation(
    num_ranks: int = 4,
    *,
    steps: int = 2,
    shape: tuple[int, int, int] = (10, 8, 16),
    pcg_iters: int = 4,
    sts_stages: int = 2,
) -> AblationResult:
    """Run every mode and critical-path-analyze each one."""
    results = {
        mode: _run_mode(
            mode,
            num_ranks=num_ranks,
            steps=steps,
            shape=shape,
            pcg_iters=pcg_iters,
            sts_stages=sts_stages,
        )
        for mode in MODES
    }
    return AblationResult(num_ranks=num_ranks, steps=steps, results=results)


def render_critpath_ablation(result: AblationResult) -> str:
    """One row per mode: wall plus blame-group shares of the path."""
    groups = [g for g in BLAME_GROUPS if g not in ("host",)]
    t = Table(
        ["mode", "wall (ms)", *[f"{g} %" for g in groups]],
        title=(
            f"Critical-path blame migration, Code 1 @ {result.num_ranks}"
            f" rank(s), {result.steps} step(s)"
        ),
    )
    for mode, r in result.results.items():
        t.add_row(
            [
                mode,
                r.wall * 1e3,
                *[f"{r.blame_share(g) * 100:.1f}" for g in groups],
            ]
        )
    return t.render()


run = run_critpath_ablation


def section(ab: AblationResult) -> list[str]:
    sync_halo = ab.blame_share("sync", "halo")
    best_halo = ab.blame_share("overlap+fusion", "halo")
    return [
        "The critical-path observatory (`repro critpath`,"
        " `repro.obs.critpath`) merges every rank's span/event stream --"
        " including the detached communication clocks of overlapped"
        " exchanges -- into one event graph and walks the path that gated"
        " the wall clock, attributing each segment to a blame group"
        " (compute / halo / collectives / launch / memory / idle). Running"
        " Code 1 under four communication schedules shows the path"
        " migrating off MPI as the overlap optimizations stack:\n",
        "```\n" + render_critpath_ablation(ab) + "\n```",
        f"\nHalo blame on the critical path falls from"
        f" {sync_halo * 100:.1f}% (sync) to {best_halo * 100:.1f}%"
        " (overlap+fusion): the exchange is no longer what the wall clock"
        " waits on. `pipelined` additionally removes the collective"
        " rendezvous from the path (the fused allreduce completes under"
        " the matvec), trading it for the extra recurrence compute --"
        " i.e. at this scale the critical path is compute, and the"
        " roofline table (`repro critpath DIR`) says how close to"
        " speed-of-light that compute already is.",
    ]
