"""Synthesis: the directive-count vs performance trade-off.

The paper's implicit bottom line in one picture: every code version
plotted by how many OpenACC directives its source still carries (Table I,
x-axis) against its wall-clock time (Fig. 2, y-axis). Codes 2 and 6 are
the paper's recommendation because they sit in the corner -- few
directives, near-original performance -- while the zero-directive UM
codes pay the 1.25x-3x toll.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion, GPU_VERSIONS, version_info
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.metrics import measure
from repro.fortran.pipeline import build_version
from repro.perf.breakdown import measure_breakdown
from repro.perf.calibration import Calibration, PAPER_CALIBRATION
from repro.util.tables import Table


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """One code version's position in the trade-off plane."""

    version: CodeVersion
    acc_lines: int
    wall_minutes: float


@dataclass(frozen=True)
class TradeoffResult:
    """All versions' points at one GPU count."""

    num_gpus: int
    points: dict[CodeVersion, TradeoffPoint]

    def pareto_front(self) -> list[CodeVersion]:
        """Versions not dominated in (fewer directives, less time)."""
        front = []
        for v, p in self.points.items():
            dominated = any(
                q.acc_lines <= p.acc_lines
                and q.wall_minutes <= p.wall_minutes
                and (q.acc_lines < p.acc_lines or q.wall_minutes < p.wall_minutes)
                for w, q in self.points.items()
                if w is not v
            )
            if not dominated:
                front.append(v)
        return sorted(front, key=lambda v: self.points[v].acc_lines)


def run_tradeoff(
    num_gpus: int = 8, *, calibration: Calibration = PAPER_CALIBRATION
) -> TradeoffResult:
    """Measure directive counts (source pipeline) and wall times (model)."""
    code1 = generate_mas_codebase()
    points = {}
    plans: dict = {}
    for v in GPU_VERSIONS:
        acc = measure(build_version(v, code1=code1)).acc_lines
        wall = measure_breakdown(
            v, num_gpus, calibration=calibration, plans=plans
        ).wall_minutes
        points[v] = TradeoffPoint(version=v, acc_lines=acc, wall_minutes=wall)
    return TradeoffResult(num_gpus=num_gpus, points=points)


def render_tradeoff(result: TradeoffResult) -> str:
    """Table ordered by directive count, Pareto front marked."""
    front = set(result.pareto_front())
    t = Table(
        ["code", "!$acc lines", f"wall @ {result.num_gpus} GPUs (min)", "Pareto"],
        title="Directive count vs performance (the paper's trade-off)",
    )
    for v in sorted(result.points, key=lambda v: result.points[v].acc_lines):
        p = result.points[v]
        t.add_row([version_info(v).tag, p.acc_lines, p.wall_minutes, v in front])
    return t.render()


def run(*, ranks: int = 8) -> TradeoffResult:
    return run_tradeoff(ranks)


render = render_tradeoff


def section(result: TradeoffResult) -> list[str]:
    front = ", ".join(version_info(v).tag for v in result.pareto_front())
    return [
        "Table I's directive counts against Fig. 2's wall clock (`repro"
        " tradeoff`), fewest directives first:\n",
        "```\n" + render_tradeoff(result) + "\n```",
        f"\nThe front is {front}: the unified-memory codes that keep"
        " directives (3, 4) are dominated by the zero-directive Code 5, and"
        " Codes 2 and 6 -- the paper's recommendation -- buy most of Code 1's"
        " speed with a fraction of its directives.",
    ]
