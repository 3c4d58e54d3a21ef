"""Fig. 4: NSIGHT-style timeline of viscosity-solver iterations.

Profiles Code 1 (A) on 8 GPUs twice: with manual memory management and
with unified memory (the paper ran exactly this control: Code 1 with UM
enabled). The paper's findings, asserted by ``tests/experiments/test_figs.py``:

* manual: halo exchanges ride GPU peer-to-peer (NVLink) transfers;
* UM: every exchange performs multiple CPU-GPU transfers with larger
  gaps between kernel launches;
* a viscosity-solver iteration is ~3x slower under UM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.perf.calibration import Calibration, MEASURE_SHAPE, PAPER_CALIBRATION
from repro.perf.profiler import Profiler
from repro.runtime.clock import TimeCategory

NUM_GPUS = 8


@dataclass(frozen=True)
class Fig4Result:
    """Viscosity-iteration timing and event composition, manual vs UM."""

    iteration_manual: float      # seconds per PCG iteration, manual data
    iteration_um: float          # seconds per PCG iteration, unified memory
    manual_p2p_events: int       # NVLink messages during the solve window
    manual_staged_events: int    # host-staged transfers (should be 0)
    um_staged_events: int        # CPU<->GPU migrations during the solve
    timeline_manual: str
    timeline_um: str

    @property
    def um_slowdown(self) -> float:
        """Per-iteration UM/manual ratio (paper: ~3x)."""
        return self.iteration_um / self.iteration_manual


def _profiled_model(unified: bool, calibration: Calibration) -> tuple[MasModel, Profiler]:
    rt_cfg = runtime_config_for(CodeVersion.A)
    if unified:
        rt_cfg = rt_cfg.with_unified_memory()
    model = MasModel(
        ModelConfig(
            shape=MEASURE_SHAPE,
            num_ranks=NUM_GPUS,
            pcg_iters=calibration.pcg_iters,
            sts_stages=calibration.sts_stages,
            extra_model_arrays=67,
        ),
        rt_cfg,
        **calibration.hardware(),
    )
    profiler = Profiler()
    for r, rt in enumerate(model.ranks):
        profiler.attach(rt.clock, f"gpu{r}")
    return model, profiler


def _solver_window(profiler: Profiler) -> tuple[float, float]:
    visc = profiler.by_label("visc_")
    if not visc:
        raise RuntimeError("no viscosity-solver events recorded")
    return min(e.start for e in visc), max(e.end for e in visc)


def run_fig4(calibration: Calibration = PAPER_CALIBRATION) -> Fig4Result:
    """Profile the viscosity solve under both memory managements."""
    iters_per_step = 3 * calibration.pcg_iters  # three velocity components
    results = {}
    for unified in (False, True):
        model, profiler = _profiled_model(unified, calibration)
        model.run(1)  # warmup: UM first-touch, device fills
        start_events = len(profiler.events)
        model.run(1)
        step_events = profiler.events[start_events:]
        window_profiler = Profiler(events=step_events)
        t0, t1 = _solver_window(window_profiler)
        in_window = [e for e in step_events if e.start >= t0 and e.end <= t1]
        p2p = sum(
            1
            for e in in_window
            if e.category is TimeCategory.MPI_TRANSFER and "msg" in e.label
        )
        staged = sum(
            1
            for e in in_window
            if (e.category is TimeCategory.UM_FAULT)
            or (
                e.category is TimeCategory.MPI_TRANSFER
                and ("fault" in e.label or "um_mpi" in e.label)
            )
        )
        timeline = window_profiler.render_timeline(
            title=(
                "Fig. 4 -- viscosity solver, "
                + ("unified managed memory" if unified else "manual memory management")
            ),
            t0=t0,
            t1=min(t1, t0 + (t1 - t0) / 4),  # zoom on the first iterations
        )
        results[unified] = ((t1 - t0) / iters_per_step, p2p, staged, timeline)

    (it_m, p2p_m, staged_m, tl_m) = results[False]
    (it_u, _p2p_u, staged_u, tl_u) = results[True]
    return Fig4Result(
        iteration_manual=it_m,
        iteration_um=it_u,
        manual_p2p_events=p2p_m,
        manual_staged_events=staged_m,
        um_staged_events=staged_u,
        timeline_manual=tl_m,
        timeline_um=tl_u,
    )


def render_fig4(result: Fig4Result) -> str:
    """Both timelines plus the per-iteration comparison."""
    summary = (
        f"viscosity-solver iteration: manual {result.iteration_manual * 1e3:.3f} ms, "
        f"unified {result.iteration_um * 1e3:.3f} ms "
        f"-> UM is {result.um_slowdown:.2f}x slower per iteration (paper: ~3x)\n"
        f"manual window: {result.manual_p2p_events} P2P messages, "
        f"{result.manual_staged_events} host-staged transfers; "
        f"UM window: {result.um_staged_events} CPU<->GPU migrations"
    )
    return "\n\n".join([result.timeline_manual, result.timeline_um, summary])


run = run_fig4
render = render_fig4


def section(f4: Fig4Result) -> list[str]:
    return [
        f"* per-iteration time: manual {f4.iteration_manual * 1e3:.3f} ms,"
        f" unified memory {f4.iteration_um * 1e3:.3f} ms ->"
        f" **{f4.um_slowdown:.2f}x slower under UM** (paper: ~3x).\n"
        f"* manual window: {f4.manual_p2p_events} GPU peer-to-peer messages,"
        f" {f4.manual_staged_events} host-staged transfers.\n"
        f"* UM window: {f4.um_staged_events} CPU<->GPU page-migration events"
        " -- the 'multiple CPU-GPU transfers' of the paper's bottom lane.\n",
        "```\n" + f4.timeline_manual + "\n\n" + f4.timeline_um + "\n```",
    ]
