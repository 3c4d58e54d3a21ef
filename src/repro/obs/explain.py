"""Hierarchical wall-time regression explanation: ``telemetry --explain``.

``repro telemetry --compare A B`` diffs raw metric series; ``--explain``
answers the question a failing perf-smoke actually raises: *where did the
wall time go?* It loads both runs' step records, spans, kernel counters
and event record, then decomposes the wall-clock delta hierarchically --

    category (compute / mpi_* / launch / memory / host)
      -> phase (depth-1 ``step/*`` spans)
        -> kernel (``kernel_seconds_total{kernel}``)
          -> rank (busy seconds per profiler lane)

-- each level sorted by signed contribution to the delta, with its share
of the total. The ``mpi share of delta`` line is the acceptance metric
for the sync-vs-overlap scenario: hidden communication must account for
(almost) the whole gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.obs.events import EventRecord, sum_by_key
from repro.obs.runlog import json_object

#: Categories whose sum is "MPI time" in the paper's Fig. 3 accounting.
MPI_CATEGORIES = ("mpi_pack", "mpi_transfer", "mpi_wait")


@dataclass
class RunProfile:
    """One run's wall-time decomposition along every explain axis."""

    name: str
    #: Simulated wall seconds (sum of per-step walls, max over ranks).
    wall: float = 0.0
    #: Mean-over-ranks seconds per clock category, summed over steps.
    categories: dict[str, float] = field(default_factory=dict)
    #: Total simulated seconds per depth-1 step phase (span timebase).
    phases: dict[str, float] = field(default_factory=dict)
    #: Device-busy seconds per kernel (kernel_seconds_total).
    kernels: dict[str, float] = field(default_factory=dict)
    #: Non-wait busy seconds per rank lane (from the event record).
    ranks: dict[str, float] = field(default_factory=dict)
    #: Streams that were missing or unreadable while loading.
    notes: list[str] = field(default_factory=list)


def load_profile(path: str | Path, *, name: str | None = None) -> RunProfile:
    """Build a :class:`RunProfile` from a finalized telemetry directory.

    Every stream is optional: a missing artifact degrades that axis and
    adds a note instead of failing the whole explanation.
    """
    from repro.obs import telemetry as tmod
    from repro.obs.summary import _read_jsonl, skipped_note

    d = Path(path)
    if not d.is_dir():
        raise FileNotFoundError(f"telemetry directory {d} does not exist")
    prof = RunProfile(name=name or str(d))

    log = _read_jsonl(d / tmod.LOG_FILE)
    steps = [r for r in log if r.get("event") == "step"]
    if not steps:
        prof.notes.append(f"no step records in {tmod.LOG_FILE}")
    for r in steps:
        prof.wall += float(r.get("wall", 0.0))
        for cat, v in (r.get("categories") or {}).items():
            prof.categories[cat] = prof.categories.get(cat, 0.0) + float(v)

    spans = _read_jsonl(d / tmod.SPANS_FILE)
    if not spans:
        prof.notes.append(f"no spans in {tmod.SPANS_FILE}")
    for s in spans:
        if s.get("depth") == 1 and str(s.get("name", "")).startswith("step/"):
            if s.get("end") is not None:
                prof.phases[s["name"]] = prof.phases.get(s["name"], 0.0) + float(
                    s.get("duration", 0.0)
                )
    for stream, lines in ((tmod.LOG_FILE, log), (tmod.SPANS_FILE, spans)):
        if lines.skipped:
            prof.notes.append(skipped_note(stream, lines))

    try:
        metrics = json_object(d / tmod.METRICS_JSON_FILE)
        if not metrics:
            prof.notes.append(f"no {tmod.METRICS_JSON_FILE}")
    except FileNotFoundError:
        metrics = {}
        prof.notes.append(f"no {tmod.METRICS_JSON_FILE}")
    except (OSError, ValueError) as exc:
        metrics = {}
        prof.notes.append(f"unreadable {tmod.METRICS_JSON_FILE} ({exc})")
    for sample in (metrics.get("kernel_seconds_total") or {}).get("samples", []):
        kernel = sample.get("labels", {}).get("kernel")
        if kernel:
            prof.kernels[kernel] = prof.kernels.get(kernel, 0.0) + float(
                sample.get("value", 0.0)
            )
    if metrics and not prof.kernels:
        prof.notes.append(
            "no kernel_seconds_total counters (run predates per-kernel "
            "instrumentation)"
        )

    try:
        record = EventRecord.load(d / tmod.EVENTS_FILE)
    except FileNotFoundError:
        prof.notes.append(f"no {tmod.EVENTS_FILE}")
    except ValueError as exc:
        prof.notes.append(f"unreadable {tmod.EVENTS_FILE} ({exc})")
    else:
        busy = record.category != record.category_id("mpi_wait")
        for lane, seconds in sum_by_key(record.lane[busy], record.duration[busy]).items():
            prof.ranks[record.lanes[lane]] = seconds
    return prof


@dataclass(frozen=True, slots=True)
class Contribution:
    """One item's contribution to the wall-time delta at one level."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a


@dataclass
class Explanation:
    """The decomposed A-vs-B wall delta."""

    a: RunProfile
    b: RunProfile
    categories: list[Contribution]
    phases: list[Contribution]
    kernels: list[Contribution]
    ranks: list[Contribution]

    @property
    def wall_delta(self) -> float:
        return self.b.wall - self.a.wall

    @property
    def mpi_delta(self) -> float:
        """Signed delta of the MPI category group (pack+transfer+wait)."""
        return sum(c.delta for c in self.categories if c.name in MPI_CATEGORIES)

    @property
    def mpi_share_of_delta(self) -> float:
        """Fraction of the wall delta the MPI categories explain.

        The acceptance metric: for a sync-vs-overlap pair of runs this
        must be >= 0.9 (hidden halo traffic is the whole story); asserted
        by ``tests/obs/test_explain.py`` and the CI ``perf-smoke`` job.
        """
        if self.wall_delta == 0.0:
            return 0.0
        return self.mpi_delta / self.wall_delta


def _contributions(
    a: Mapping[str, float], b: Mapping[str, float]
) -> list[Contribution]:
    rows = [
        Contribution(k, a.get(k, 0.0), b.get(k, 0.0)) for k in set(a) | set(b)
    ]
    rows = [c for c in rows if c.delta != 0.0 or c.a != 0.0 or c.b != 0.0]
    rows.sort(key=lambda c: (-abs(c.delta), c.name))
    return rows


def explain(a: RunProfile, b: RunProfile) -> Explanation:
    """Decompose ``b.wall - a.wall`` along every loaded axis."""
    return Explanation(
        a=a,
        b=b,
        categories=_contributions(a.categories, b.categories),
        phases=_contributions(a.phases, b.phases),
        kernels=_contributions(a.kernels, b.kernels),
        ranks=_contributions(a.ranks, b.ranks),
    )


def explain_dirs(a_dir: str | Path, b_dir: str | Path) -> Explanation:
    """Load both telemetry directories and explain the delta."""
    return explain(load_profile(a_dir), load_profile(b_dir))


def _level_table(
    title: str,
    rows: list[Contribution],
    wall_delta: float,
    *,
    a_name: str,
    b_name: str,
    top: int,
) -> str | None:
    from repro.util.tables import Table

    if not rows:
        return None
    t = Table(
        ["item", f"{a_name} (ms)", f"{b_name} (ms)", "delta (ms)",
         "share of wall delta"],
        title=title,
    )
    for c in rows[:top]:
        share = c.delta / wall_delta if wall_delta else 0.0
        t.add_row(
            [c.name, c.a * 1e3, c.b * 1e3, f"{c.delta * 1e3:+.3f}",
             f"{share * 100:+6.1f}%"]
        )
    hidden = len(rows) - top
    tail = f"\n({hidden} smaller contributor(s) not shown)" if hidden > 0 else ""
    return t.render() + tail


def render_explain(
    exp: Explanation, *, a_name: str = "A", b_name: str = "B", top: int = 8
) -> str:
    """Full --explain report: header line plus one table per level."""
    wd = exp.wall_delta
    direction = "slower" if wd > 0 else "faster"
    blocks = [
        f"wall-time delta: {a_name} {exp.a.wall * 1e3:.3f} ms -> "
        f"{b_name} {exp.b.wall * 1e3:.3f} ms "
        f"({wd * 1e3:+.3f} ms, {b_name} is "
        f"{abs(wd) / exp.a.wall * 100 if exp.a.wall else 0.0:.1f}% {direction})",
        f"mpi share of delta (pack+transfer+wait): "
        f"{exp.mpi_share_of_delta * 100:.1f}% "
        f"({exp.mpi_delta * 1e3:+.3f} ms of {wd * 1e3:+.3f} ms)",
    ]
    for title, rows in (
        ("By clock category", exp.categories),
        ("By step phase (depth-1 spans)", exp.phases),
        ("By kernel (kernel_seconds_total)", exp.kernels),
        ("By rank lane (non-wait busy seconds)", exp.ranks),
    ):
        block = _level_table(
            title, rows, wd, a_name=a_name, b_name=b_name, top=top
        )
        if block:
            blocks.append(block)
    notes = [f"{exp.a.name}: {n}" for n in exp.a.notes] + [
        f"{exp.b.name}: {n}" for n in exp.b.notes
    ]
    if notes:
        blocks.append("notes:\n" + "\n".join(f"  - {n}" for n in notes))
    return "\n\n".join(blocks)
