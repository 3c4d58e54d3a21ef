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

import numpy as np

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.obs.events import EventRecord, Profiler
from repro.perf.calibration import Calibration, MEASURE_SHAPE, PAPER_CALIBRATION
from repro.perf.trace_export import MEM_CATEGORIES
from repro.runtime.clock import TimeCategory
from repro.util.ascii_plot import AsciiTimeline

NUM_GPUS = 8

#: Timeline glyph category per clock category value; launch gaps draw blank.
_GLYPH = {
    TimeCategory.COMPUTE.value: "kernel",
    TimeCategory.MPI_PACK.value: "kernel",
    TimeCategory.LAUNCH.value: "idle",
    TimeCategory.UM_FAULT.value: "h2d",
    TimeCategory.H2D.value: "h2d",
    TimeCategory.D2H.value: "d2h",
    TimeCategory.MPI_TRANSFER.value: "p2p",
    TimeCategory.MPI_WAIT.value: "mpi_wait",
    TimeCategory.HOST.value: "host",
}


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


def _labels_with(record: EventRecord, *needles: str) -> np.ndarray:
    """Per row: whether its label contains any of ``needles``."""
    hit = [any(n in text for n in needles) for text in record.labels]
    return np.array(hit, dtype=bool)[record.label]


def render_timeline(record: EventRecord, *, title: str, t0: float, t1: float) -> str:
    """Fig. 4-style ASCII timeline of ``record`` over ``[t0, t1]``: a compute
    lane per rank, its transfers and faults on a ``:mem`` lane beneath."""
    tl = AsciiTimeline(width=100, title=title)
    for lane, cat, label, start, duration in zip(
        record.lane.tolist(), record.category.tolist(), record.label.tolist(),
        record.start.tolist(), record.duration.tolist(),
    ):
        category, text = record.categories[cat], record.labels[label]
        glyph = _GLYPH.get(category, "kernel")
        if category == TimeCategory.MPI_TRANSFER.value:
            # distinguish NVLink peer-to-peer messages from UM page
            # migrations staged through the host (Fig. 4's two lanes)
            if "fault_out" in text:
                glyph = "d2h"
            elif "fault_in" in text or "um_mpi" in text:
                glyph = "h2d"
        if glyph == "idle":
            continue
        name = record.lanes[lane] + (":mem" if category in MEM_CATEGORIES else "")
        tl.add_event(name, start, start + duration, glyph)
    return tl.render(t0=t0, t1=t1)


def run_fig4(calibration: Calibration = PAPER_CALIBRATION) -> Fig4Result:
    """Profile the viscosity solve under both memory managements."""
    iters_per_step = 3 * calibration.pcg_iters  # three velocity components
    results = {}
    for unified in (False, True):
        model, profiler = _profiled_model(unified, calibration)
        model.run(1)  # warmup: UM first-touch, device fills
        profiler.clear()
        model.run(1)
        step = profiler.record()
        end = step.start + step.duration
        visc = _labels_with(step, "visc_")
        if not visc.any():
            raise RuntimeError("no viscosity-solver events recorded")
        t0, t1 = float(step.start[visc].min()), float(end[visc].max())
        in_window = (step.start >= t0) & (end <= t1)
        transfer = step.category == step.category_id(TimeCategory.MPI_TRANSFER.value)
        fault = step.category == step.category_id(TimeCategory.UM_FAULT.value)
        p2p = int((in_window & transfer & _labels_with(step, "msg")).sum())
        staged = int(
            (in_window & (fault | (transfer & _labels_with(step, "fault", "um_mpi")))).sum()
        )
        timeline = render_timeline(
            step,
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
