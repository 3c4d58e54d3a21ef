"""`repro report` must regenerate every section of the committed
EXPERIMENTS.md: a section appended by hand is deleted by the next
regeneration."""

from pathlib import Path

from repro.experiments import report
from repro.experiments.catalog import EXPERIMENTS

COMMITTED = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()

#: The rows cheap enough (under 1.5 s each) to rebuild here.
CHEAP = (
    "repro.experiments.table2",
    "repro.experiments.ensemble",
    "repro.perf.memory_fit",
    "repro.fortran.portability",
)


def test_report_sections_are_the_committed_headings():
    committed = [ln[3:] for ln in COMMITTED.splitlines() if ln.startswith("## ")]
    assert [row.heading for row in EXPERIMENTS] == committed


def test_ensemble_section_regenerates_the_committed_text():
    """Exact counts and model-free estimates, so the committed text of
    each cheap section is reproduced to the byte."""
    rows = [row for row in EXPERIMENTS if row.module in CHEAP]
    assert len(rows) == len(CHEAP)
    for row in rows:
        assert report.build_section(row) + "\n" in COMMITTED, row.heading
