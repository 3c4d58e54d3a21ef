"""What ``run_fig2`` / ``run_fig3`` produce, reduced to a fixture.

``tests/fixtures/fig_parent.json`` was written by this file from the commit
before step plans existed (every point a live model run); ``test_plan.py``
requires the replaying sweeps to reproduce it: the 24 + 12
``(wall_minutes, mpi_minutes)`` pairs as hex floats, and of ``run_fig2``
under a telemetry session the bound models in order, the event record's
columns, the spans and the ``step`` log records (host-time fields dropped).
It uses nothing newer than ``run_fig2``, ``run_fig3`` and ``session``, so it
runs at either commit. When the step lost its empty ``step/semi_implicit``
span, the three span fields were re-derived from the reference run's spans
with that span dropped and the span ids renumbered; every other field is
as recorded.

Re-record (only from a commit whose sweeps are the reference) with::

    PYTHONPATH=src python tests/mas/fig_fixture.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fig_parent.json"


def fig2_pairs(result) -> dict[str, list[str]]:
    return {
        f"{v.name}@{p.num_gpus}": [p.wall_minutes.hex(), p.mpi_minutes.hex()]
        for v, s in result.series.items()
        for p in s.points
    }


def fig3_pairs(result) -> dict[str, list[str]]:
    return {
        f"{v.name}@{n}": [b.wall_minutes.hex(), b.mpi_minutes.hex()]
        for (n, v), b in result.bars.items()
    }


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def telemetry_digest(out_dir: Path) -> dict:
    """A finalized telemetry directory, minus what the host clock wrote."""
    from repro.obs.events import EventRecord

    rec = EventRecord.load(out_dir / "events.npz")
    events = hashlib.sha256()
    for name in ("start", "duration", "lane", "category", "label"):
        events.update(getattr(rec, name).tobytes())
    for table in (rec.lanes, rec.categories, rec.labels):
        events.update("\0".join(table).encode())
    spans = []
    for line in (out_dir / "spans.jsonl").read_text().splitlines():
        span = json.loads(line)
        del span["host_seconds"]
        spans.append(span)
    log = [json.loads(x) for x in (out_dir / "log.jsonl").read_text().splitlines()]
    steps = [r for r in log if r["event"] == "step"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {
        "models": [
            f"m{m['index']}:{m['version']}@{m['num_ranks']}" for m in manifest["models"]
        ],
        "events": len(rec),
        "events_sha256": events.hexdigest(),
        "spans": len(spans),
        "span_names_sha256": _sha(s["name"] for s in spans),
        "spans_sha256": _sha(json.dumps(s, sort_keys=True) for s in spans),
        "steps": len(steps),
        "steps_sha256": _sha(json.dumps(r, sort_keys=True) for r in steps),
    }


def measure() -> dict:
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.fig3 import run_fig3
    from repro.obs.telemetry import session

    with tempfile.TemporaryDirectory() as tmp:
        with session(tmp, command="fig2"):
            fig2 = run_fig2()
        telemetry = telemetry_digest(Path(tmp))
    return {
        "fig2": fig2_pairs(fig2),
        "fig3": fig3_pairs(run_fig3()),
        "fig2_telemetry": telemetry,
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(measure(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
