"""EXPERIMENTS.md generator: paper-vs-measured for every table and figure.

Run ``repro report`` (``python -m repro.experiments.report``) to
regenerate EXPERIMENTS.md from scratch: it runs every row of
:mod:`repro.experiments.catalog` with the full paper calibration and
writes one section each, in about 45 s on a 2-core host (the multi-node
sweep is 13 s of that, the sensitivity sweep 9 s). Everything in the file
is on the simulated clock or an exact count, so a second run writes the
same bytes; host-clock numbers live in ``python3 -m bench``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path

from repro.experiments.catalog import EXPERIMENTS, Experiment

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


def build_section(row: Experiment) -> str:
    """Run one experiment and write its section, heading included."""
    module = import_module(row.module)
    return "\n".join([f"\n## {row.heading}\n", *module.section(module.run())])


def build_report() -> str:
    return "\n".join([HEADER, *map(build_section, EXPERIMENTS)]) + "\n"


def main(path: str | None = None) -> None:
    """Regenerate EXPERIMENTS.md (default: repo root next to src/)."""
    target = Path(path) if path else Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
    text = build_report()
    target.write_text(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
