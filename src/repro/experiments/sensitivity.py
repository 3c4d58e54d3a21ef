"""Calibration sensitivity: which fitted constants carry the conclusions.

A reproduction built on a calibrated model owes the reader a robustness
check: if a headline (say, the Code 5 vs Code 1 slowdown at 8 GPUs) only
holds for a knife-edge setting of some constant, it is calibration, not
mechanism. This experiment perturbs each fitted constant by a factor in
both directions and re-measures the headline metrics;
``tests/experiments/test_sensitivity.py`` asserts the paper's qualitative
conclusions survive every perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codes import CodeVersion
from repro.perf.breakdown import measure_breakdown
from repro.perf.calibration import Calibration
from repro.util.tables import Table

#: Constants perturbed, with a short note on what each models.
PERTURBED_CONSTANTS = (
    ("um_body_efficiency", "UM kernel-body slowdown"),
    ("um_launch_extra", "UM per-launch overhead"),
    ("um_page_amplification", "UM page-migration traffic"),
    ("um_host_mpi_overhead", "UM per-message host sync"),
    ("halo_pack_inefficiency", "strided pack traffic"),
    ("halo_buffer_init_fraction", "buffer maintenance traffic"),
    ("mpi_buffer_pressure", "memory-pressure slowdown"),
    ("rank_jitter", "load imbalance"),
)


@dataclass(frozen=True, slots=True)
class SensitivityPoint:
    """Headline metrics under one perturbed calibration."""

    constant: str
    factor: float
    dc_slowdown_8: float       # Code 5 / Code 1 wall at 8 GPUs
    um_mpi_blowup_8: float     # Code 3 MPI / Code 1 MPI at 8 GPUs

    @property
    def conclusions_hold(self) -> bool:
        """The paper's two qualitative claims, directionally: DC+UM is
        meaningfully slower than OpenACC but the same order of magnitude,
        and UM blows MPI time up by several times."""
        return 1.2 < self.dc_slowdown_8 < 5.0 and self.um_mpi_blowup_8 > 3.0


def _perturb(cal: Calibration, name: str, factor: float) -> Calibration:
    value = getattr(cal, name)
    new = value * factor
    if name == "um_body_efficiency":
        new = min(new, 1.0)  # efficiency is capped at 1
    if name in ("halo_pack_inefficiency", "um_page_amplification"):
        new = max(new, 1.0)  # traffic multipliers are >= 1 by contract
    return replace(cal, **{name: new})


def _headlines(cal: Calibration, plans: dict) -> tuple[float, float]:
    a = measure_breakdown(CodeVersion.A, 8, calibration=cal, plans=plans)
    d2xu = measure_breakdown(CodeVersion.D2XU, 8, calibration=cal, plans=plans)
    adu = measure_breakdown(CodeVersion.ADU, 8, calibration=cal, plans=plans)
    return (
        d2xu.wall_minutes / a.wall_minutes,
        adu.mpi_minutes / max(a.mpi_minutes, 1e-12),
    )


def run_sensitivity(
    *,
    base: Calibration | None = None,
    factors: tuple[float, ...] = (0.5, 2.0),
) -> list[SensitivityPoint]:
    """Sweep each constant by each factor; returns all points.

    The first returned point is the unperturbed baseline (factor 1.0).
    """
    cal = base or Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)
    points = []
    plans: dict = {}  # no fitted constant changes what the model emits
    s0, b0 = _headlines(cal, plans)
    points.append(SensitivityPoint("baseline", 1.0, s0, b0))
    for name, _note in PERTURBED_CONSTANTS:
        for factor in factors:
            s, b = _headlines(_perturb(cal, name, factor), plans)
            points.append(SensitivityPoint(name, factor, s, b))
    return points


def render_sensitivity(points: list[SensitivityPoint]) -> str:
    """Tornado-style table of the sweep."""
    notes = dict(PERTURBED_CONSTANTS)
    t = Table(
        ["constant", "x", "Code5/Code1 @8", "UM MPI blowup @8", "conclusions hold"],
        title="Calibration sensitivity (headline metrics under perturbation)",
    )
    for p in points:
        t.add_row(
            [
                f"{p.constant}" + (f" ({notes[p.constant]})" if p.constant in notes else ""),
                f"{p.factor:g}",
                p.dc_slowdown_8,
                p.um_mpi_blowup_8,
                p.conclusions_hold,
            ]
        )
    return t.render()


run = run_sensitivity


def section(points: list[SensitivityPoint]) -> list[str]:
    held = sum(p.conclusions_hold for p in points)
    return [
        "Each fitted constant of `repro/perf/calibration.py` at half and at"
        " twice its value (docs/CALIBRATION.md S4), on a reduced calibration"
        " (3 PCG iterations, 3 STS stages, 1 benchmark step). A conclusion"
        " *holds* when the zero-directive Code 5 stays between 1.2x and 5x"
        " slower than Code 1 at 8 GPUs and unified memory still blows MPI"
        " time up more than 3x:\n",
        "```\n" + render_sensitivity(points) + "\n```",
        f"\nThe conclusions hold at {held} of {len(points)} points: they are"
        " mechanism, not a knife-edge setting of one constant.",
    ]
