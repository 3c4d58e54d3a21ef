"""Per-category time accounting: where each code version spends its step.

Finer-grained than Fig. 3's two-way split: break a step into compute,
launch gaps, UM migration, explicit copies, MPI pack/transfer/wait. The
category signature is each code version's fingerprint -- DC codes carry
more launch time (fission + no async), UM codes carry migration time --
and ``tests/perf/test_categories.py`` asserts those fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion
from repro.perf.calibration import Calibration, PAPER_CALIBRATION, build_model
from repro.runtime.clock import TimeCategory
from repro.util.ascii_plot import AsciiBarChart


@dataclass(frozen=True)
class CategoryBreakdown:
    """Mean per-step seconds by time category (averaged over ranks)."""

    version: CodeVersion
    num_gpus: int
    seconds: dict[TimeCategory, float]

    @property
    def total(self) -> float:
        """Per-step wall approximation (sum over categories, mean rank)."""
        return sum(self.seconds.values())

    def fraction(self, category: TimeCategory) -> float:
        """Share of one category."""
        return self.seconds.get(category, 0.0) / self.total if self.total else 0.0


def measure_categories(
    version: CodeVersion,
    num_gpus: int,
    *,
    calibration: Calibration = PAPER_CALIBRATION,
) -> CategoryBreakdown:
    """Run warmup + bench steps and average category deltas per step."""
    m = build_model(version, num_gpus, calibration=calibration)
    m.run(calibration.warmup_steps)
    before = [dict(rt.clock.by_category) for rt in m.ranks]
    m.run(calibration.bench_steps)
    seconds: dict[TimeCategory, float] = {}
    n_ranks = len(m.ranks)
    for r, rt in enumerate(m.ranks):
        for cat, t in rt.clock.by_category.items():
            dt = (t - before[r].get(cat, 0.0)) / calibration.bench_steps
            seconds[cat] = seconds.get(cat, 0.0) + dt / n_ranks
    return CategoryBreakdown(version=version, num_gpus=num_gpus, seconds=seconds)


def render_categories(breakdowns: list[CategoryBreakdown]) -> str:
    """Stacked per-step bars across versions."""
    chart = AsciiBarChart(
        title="Per-step time by category (mean rank, ms)", unit="ms", width=50
    )
    order = (
        TimeCategory.COMPUTE,
        TimeCategory.LAUNCH,
        TimeCategory.UM_FAULT,
        TimeCategory.MPI_PACK,
        TimeCategory.MPI_TRANSFER,
        TimeCategory.MPI_WAIT,
    )
    for b in breakdowns:
        chart.add_group(
            f"{b.version.name}@{b.num_gpus}",
            [(c.value, b.seconds.get(c, 0.0) * 1e3) for c in order],
        )
    return chart.render()


#: One code per fingerprint: the OpenACC original, DC with manual data,
#: OpenACC + DC under unified memory, and the zero-directive code.
VERSIONS = (CodeVersion.A, CodeVersion.AD, CodeVersion.ADU, CodeVersion.D2XU)


def run(*, ranks: int = 8) -> list[CategoryBreakdown]:
    """The paper calibration's per-step categories of ``VERSIONS``."""
    return [measure_categories(v, ranks) for v in VERSIONS]


render = render_categories


def section(breakdowns: list[CategoryBreakdown]) -> list[str]:
    return [
        "Finer than Fig. 3's two-way split: one step's simulated time by"
        " clock category, mean over ranks (`repro categories`). DC codes carry"
        " more launch time (fission, no async queues); UM codes pay their page"
        " migration as MPI transfer time. The fingerprints are asserted by"
        " `tests/perf/test_categories.py`.\n",
        "```\n" + render_categories(breakdowns) + "\n```",
    ]
