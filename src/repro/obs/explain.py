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

from repro.obs.events import sum_by_key
from repro.obs.reader import (
    MPI_CATEGORIES, TelemetryDir, decode_metrics, decode_spans, decode_steps, skipped_notes,
)


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
    adds a note instead of failing the whole explanation. A record the
    reader's decoders drop is counted in one note per stream.
    """
    tel = TelemetryDir(path)
    prof = RunProfile(name=name or str(tel.path))

    log, lines = tel.lines("log"), tel.lines("spans")
    steps, spans = decode_steps(log), decode_spans(lines)
    if not steps and not steps.skipped:
        prof.notes.append(f"no step records in {log.name}")
    if not lines:
        prof.notes.append(f"no spans in {lines.name}")
    for r in steps:
        prof.wall += r["wall"]
        for cat, v in r["categories"].items():
            prof.categories[cat] = prof.categories.get(cat, 0.0) + v
    for s in spans:
        if s["depth"] == 1 and s["end"] is not None and s["name"].startswith("step/"):
            prof.phases[s["name"]] = prof.phases.get(s["name"], 0.0) + s["duration"]
    prof.notes += skipped_notes(log, steps, lines, spans)

    metrics = tel.stream("metrics")
    if metrics.error is not None:
        prof.notes.append(f"unreadable {metrics.name} ({metrics.error})")
    elif not metrics.value:
        prof.notes.append(f"no {metrics.name}")
    samples = decode_metrics(metrics.value)
    prof.notes += skipped_notes(samples)
    for sample in samples.get("kernel_seconds_total", ()):
        if kernel := sample["labels"].get("kernel"):
            prof.kernels[kernel] = prof.kernels.get(kernel, 0.0) + sample["value"]
    if metrics.value and not prof.kernels:
        prof.notes.append(
            "no kernel_seconds_total counters (run predates per-kernel "
            "instrumentation)"
        )

    events = tel.stream("events")
    if events.missing:
        prof.notes.append(f"no {events.name}")
    elif events.error is not None:
        prof.notes.append(f"unreadable {events.name} ({events.error})")
    else:
        record = events.value
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
