"""`repro report` must regenerate every section of the committed
EXPERIMENTS.md: a section appended by hand is deleted by the next
regeneration."""

from pathlib import Path

from repro.experiments import report

COMMITTED = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()


def test_report_sections_are_the_committed_headings():
    committed = [ln[3:] for ln in COMMITTED.splitlines() if ln.startswith("## ")]
    assert [heading for heading, _ in report.SECTIONS] == committed


def test_ensemble_section_regenerates_the_committed_text():
    """The one section cheap enough to rebuild here: exact counts, so the
    committed text is reproduced to the byte."""
    heading, section = report.SECTIONS[-1]
    out = [f"\n## {heading}\n"]
    section(out)
    assert COMMITTED.endswith("\n".join(out) + "\n")
