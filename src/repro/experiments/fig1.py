"""Fig. 1: visualization of the MAS solution for the test case.

The paper's Fig. 1 shows temperature cuts of the last time step of the
coronal background run. This experiment runs the relaxation at laptop
scale and renders the same kind of cuts as ASCII heatmaps: a meridional
(r-theta) slice and a spherical-surface (theta-phi) shell, plus physics
diagnostics asserting the solution is a sane corona (hot above the
surface, stratified density, machine-zero div B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.constants import PhysicsParams
from repro.mas.model import MasModel, ModelConfig
from repro.util.ascii_plot import AsciiHeatmap


@dataclass(frozen=True)
class Fig1Result:
    """Final-state cuts and diagnostics."""

    meridional_temp: np.ndarray   # (nr, nt) slice at fixed phi
    shell_temp: np.ndarray        # (nt, np) slice at fixed r
    r_centers: np.ndarray
    diagnostics: dict[str, float]
    steps: int
    time: float

    @property
    def corona_heated(self) -> bool:
        """Coronal heating raised temperatures above the initial
        isothermal T0 = 1 somewhere in the cut."""
        return float(self.meridional_temp.max()) > 1.0


def run_fig1(
    *,
    shape: tuple[int, int, int] = (18, 14, 24),
    steps: int = 25,
    params: PhysicsParams | None = None,
) -> Fig1Result:
    """Run the coronal relaxation and cut the final state."""
    model = MasModel(
        ModelConfig(
            shape=shape,
            num_ranks=1,
            params=params or PhysicsParams(),
            pcg_iters=6,
            sts_stages=5,
        ),
        runtime_config_for(CodeVersion.A),
    )
    model.run(steps)
    grid = model.local_grids[0]
    state = model.states[0]
    i = grid.interior()
    temp = state.temp[i]
    k_cut = temp.shape[2] // 2
    r_cut = min(4, temp.shape[0] - 1)  # low corona shell
    return Fig1Result(
        meridional_temp=temp[:, :, k_cut].copy(),
        shell_temp=temp[r_cut].copy(),
        r_centers=grid.rc[i[-3]].copy(),
        diagnostics=model.diagnostics(),
        steps=steps,
        time=model.time,
    )


def render_fig1(result: Fig1Result) -> str:
    """ASCII heatmaps of both cuts plus the diagnostics line."""
    mer = AsciiHeatmap(
        width=56,
        title="Fig. 1 -- temperature, meridional cut (rows: r outward; cols: theta)",
    )
    mer_txt = mer.render(
        result.meridional_temp,
        row_labels=[f"r={r:.2f}" for r in result.r_centers],
        col_axis="theta: pole .. equator .. pole",
    )
    shell = AsciiHeatmap(
        width=56,
        title="Fig. 1 -- temperature, low-corona shell (rows: theta; cols: phi)",
    )
    shell_txt = shell.render(result.shell_temp, col_axis="phi: 0 .. 2*pi")
    d = result.diagnostics
    footer = (
        f"after {result.steps} steps (t={result.time:.3f}): "
        f"mass={d['mass']:.3f}, max vr={d['max_vr']:.4f}, "
        f"max|divB|={d['max_divb']:.2e}"
    )
    return "\n\n".join([mer_txt, shell_txt, footer])


run = run_fig1
render = render_fig1


def section(f1: Fig1Result) -> list[str]:
    """EXPERIMENTS.md: the qualitative check plus both heatmaps."""
    return [
        "The paper's Fig. 1 shows temperature cuts of the coronal"
        " background run; ours come from the laptop-scale relaxation"
        f" (qualitative): heated corona = {f1.corona_heated},"
        f" max |div B| = {f1.diagnostics['max_divb']:.1e}.\n",
        "```\n" + render_fig1(f1) + "\n```",
    ]
