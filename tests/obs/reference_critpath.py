"""The critical-path analysis as it stood before the columnar event record.

Oracle for ``test_critpath_record.py``: ``TraceEvent``, ``PathSegment``,
``_Lane``, ``CritPathResult``, ``extract_critical_path``, ``_find_blocker``,
``_phase_split``, ``analyze_events``, ``analyze_session`` and
``load_trace_events`` (the reader of the Chrome trace that used to be the
only event record) below are an earlier ``repro.obs.critpath``'s bodies,
moved here verbatim (one
``TraceEvent`` per event, per-event ``lane_rank`` / ``blame_group`` string
work, a lambda sort per lane). They define the answers, floats included,
that the record-based analysis in ``repro.obs.critpath`` must reproduce:
tie-breaks between lanes, dict insertion orders and the order every sum
accumulates in. Do not "tidy" them. ``events_from_profiler`` adapts the
live profiler's columns to those objects, and ``path_rows`` the columns of
a ``repro.obs.critpath.PathColumns`` to ``PathSegment`` objects.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.critpath import (
    COMM_SUFFIX,
    IDLE_CATEGORY,
    OUTSIDE_PHASES,
    WAIT_CATEGORY,
    PathColumns,
    _phase_windows,
    blame_group,
    lane_model,
    lane_rank,
)


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One attributed stretch of the critical path."""

    lane: str
    start: float
    end: float
    category: str
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def path_rows(path: PathColumns) -> list[PathSegment]:
    """One :class:`PathSegment` per row of a path's columns."""
    lanes, categories, labels = path.lanes, path.categories, path.labels
    return [
        PathSegment(lanes[ln], start, end, categories[c], labels[lab])
        for ln, start, end, c, lab in zip(
            path.lane.tolist(), path.start.tolist(), path.end.tolist(),
            path.category.tolist(), path.label.tolist(),
        )
    ]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One categorized time slice on one lane (model-relative seconds)."""

    lane: str
    start: float
    duration: float
    category: str
    label: str

    @property
    def end(self) -> float:
        return self.start + self.duration


class _Lane:
    """Per-lane event index supporting covering-event queries."""

    __slots__ = ("name", "events", "starts", "last_end")

    def __init__(self, name: str, events: list[TraceEvent]) -> None:
        self.name = name
        self.events = sorted(events, key=lambda e: (e.start, e.end))
        self.starts = [e.start for e in self.events]
        self.last_end = max(e.end for e in self.events)

    def covering(self, t: float, eps: float) -> TraceEvent | None:
        """The event containing ``t`` (start < t <= end), else None."""
        idx = bisect_left(self.starts, t - eps) - 1
        if idx < 0:
            return None
        e = self.events[idx]
        return e if e.end >= t - eps else None

    def latest_ending_before(self, t: float, eps: float) -> TraceEvent | None:
        """The latest event ending at or before ``t``, else None."""
        idx = bisect_left(self.starts, t + eps) - 1
        for i in range(idx, -1, -1):
            if self.events[i].end <= t + eps:
                return self.events[i]
        return None


@dataclass
class CritPathResult:
    """Critical path and derived attribution for one model."""

    model: str
    num_ranks: int
    t0: float
    t1: float
    segments: list[PathSegment]
    #: Non-wait busy seconds per rank (imbalance input).
    busy_by_rank: dict[int, float]
    #: mpi_wait seconds per rank (stragglers pay none; peers pay all).
    idle_by_rank: dict[int, float]
    #: mpi_wait seconds per phase, summed over ranks.
    idle_by_phase: dict[str, float] = field(default_factory=dict)
    #: Path seconds per phase (span attribution, when spans are available).
    path_by_phase: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Simulated wall clock of the model (last end - first start)."""
        return self.t1 - self.t0

    @property
    def path_total(self) -> float:
        """Total attributed path length (== wall up to float eps)."""
        return sum(s.duration for s in self.segments)

    @property
    def coverage(self) -> float:
        """path_total / wall; the <=1% acceptance invariant."""
        return self.path_total / self.wall if self.wall > 0 else 1.0

    @property
    def by_category(self) -> dict[str, float]:
        """``critical_path_seconds{category}``."""
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.category] = out.get(s.category, 0.0) + s.duration
        return out

    @property
    def by_rank(self) -> dict[int, float]:
        """Path seconds attributed to each rank's lanes."""
        out: dict[int, float] = {}
        for s in self.segments:
            out.setdefault(lane_rank(s.lane), 0.0)
            out[lane_rank(s.lane)] += s.duration
        return out

    @property
    def by_blame(self) -> dict[str, float]:
        """Path seconds per blame group (halo / collectives / compute...)."""
        out: dict[str, float] = {}
        for s in self.segments:
            g = blame_group(s.category, s.label)
            out[g] = out.get(g, 0.0) + s.duration
        return out

    def blame_share(self, group: str) -> float:
        """Fraction of the critical path in one blame group (CI gate)."""
        total = self.path_total
        return self.by_blame.get(group, 0.0) / total if total > 0 else 0.0

    def top_contributors(self, n: int = 10) -> list[dict[str, Any]]:
        """Hottest (label, category) path contributors with rank blame."""
        agg: dict[tuple[str, str], dict[str, Any]] = {}
        for s in self.segments:
            key = (s.label or s.category, s.category)
            entry = agg.setdefault(
                key,
                {"label": key[0], "category": s.category, "seconds": 0.0,
                 "ranks": {}},
            )
            entry["seconds"] += s.duration
            r = lane_rank(s.lane)
            entry["ranks"][r] = entry["ranks"].get(r, 0.0) + s.duration
        rows = sorted(agg.values(), key=lambda e: -e["seconds"])[:n]
        for e in rows:
            e["rank"] = max(e["ranks"], key=e["ranks"].get)
            e["share"] = e["seconds"] / self.path_total if self.path_total else 0.0
        return rows

    @property
    def load_imbalance_ratio(self) -> float:
        """max rank busy time / mean rank busy time (1.0 = balanced)."""
        busy = [v for v in self.busy_by_rank.values() if v >= 0.0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable summary (the ``--json`` artifact body)."""
        return {
            "model": self.model,
            "num_ranks": self.num_ranks,
            "wall_seconds": self.wall,
            "path_seconds": self.path_total,
            "coverage": self.coverage,
            "load_imbalance_ratio": self.load_imbalance_ratio,
            "critical_path_seconds": self.by_category,
            "blame": self.by_blame,
            "blame_share": {g: self.blame_share(g) for g in self.by_blame},
            "by_rank": {str(k): v for k, v in self.by_rank.items()},
            "idle_by_rank": {str(k): v for k, v in self.idle_by_rank.items()},
            "idle_by_phase": self.idle_by_phase,
            "path_by_phase": self.path_by_phase,
            "top_contributors": [
                {k: v for k, v in e.items() if k != "ranks"}
                for e in self.top_contributors()
            ],
        }


def extract_critical_path(
    events: Sequence[TraceEvent], *, eps: float = 1e-12
) -> list[PathSegment]:
    """Backward-walk the critical path through one model's lanes.

    ``events`` must all belong to one model (main and ``:comm`` lanes).
    Returns segments in increasing time order, tiling ``[t0, t1]``.
    """
    events = [e for e in events if e.duration > 0.0]
    if not events:
        return []
    by_lane: dict[str, list[TraceEvent]] = {}
    for e in events:
        by_lane.setdefault(e.lane, []).append(e)
    lanes = {name: _Lane(name, evs) for name, evs in by_lane.items()}
    t0 = min(e.start for e in events)
    t1 = max(e.end for e in events)
    lane = max(lanes.values(), key=lambda ln: ln.last_end).name

    segments: list[PathSegment] = []
    t = t1
    guard = 10 * len(events) + 100
    while t > t0 + eps and guard > 0:
        guard -= 1
        e = lanes[lane].covering(t, eps)
        if e is None:
            # Hole on this lane. Another lane may still be busy at t (the
            # walker stepped onto a comm lane that attached mid-run);
            # prefer continuing on a covering lane (non-wait first) ...
            cover = cover_key = None
            for ln in lanes.values():
                cand = ln.covering(t, eps)
                if cand is None:
                    continue
                key = (cand.category != WAIT_CATEGORY, cand.end, cand.lane)
                if cover is None or key > cover_key:
                    cover, cover_key = cand, key
            if cover is not None:
                lane = cover.lane
                continue
            # ... else resume from the latest-ending event anywhere at or
            # before t, attributing the hole as idle.
            best = None
            for ln in lanes.values():
                cand = ln.latest_ending_before(t, eps)
                if cand is not None and (best is None or cand.end > best.end):
                    best = cand
            if best is None:
                segments.append(PathSegment(lane, t0, t, IDLE_CATEGORY, ""))
                break
            if best.end < t - eps:
                segments.append(
                    PathSegment(best.lane, best.end, t, IDLE_CATEGORY, "")
                )
            t = min(t, best.end)
            lane = best.lane
            continue
        if e.category == WAIT_CATEGORY:
            blocker = _find_blocker(lanes, lane, t, eps)
            if blocker is not None:
                lane = blocker.lane
                continue
        seg_start = max(e.start, t0)
        if t - seg_start > eps:
            segments.append(PathSegment(lane, seg_start, t, e.category, e.label))
        t = seg_start
    segments.reverse()
    return segments


def _find_blocker(
    lanes: Mapping[str, _Lane], current: str, t: float, eps: float
) -> TraceEvent | None:
    """The non-wait event on another lane covering ``t`` (the cause of a
    wait on ``current``), preferring the latest-ending candidate."""
    best: TraceEvent | None = None
    for name, ln in lanes.items():
        if name == current:
            continue
        cand = ln.covering(t, eps)
        if cand is None or cand.category == WAIT_CATEGORY:
            continue
        if best is None or (cand.end, cand.lane) > (best.end, best.lane):
            best = cand
    return best


def _phase_split(
    windows: list[tuple[float, float, str]], start: float, end: float
) -> list[tuple[str, float]]:
    """Split ``[start, end]`` across the sorted phase windows.

    Seconds outside every window accrue to ``(outside phases)`` -- long
    segments spanning a phase boundary are clipped, not midpoint-binned.
    """
    out: list[tuple[str, float]] = []
    t = start
    idx = max(0, bisect_left(windows, (t, float("inf"), "")) - 1)
    for w0, w1, name in windows[idx:]:
        if w1 <= t:
            continue
        if w0 >= end:
            break
        if w0 > t:
            out.append((OUTSIDE_PHASES, w0 - t))
            t = w0
        take = min(w1, end) - t
        if take > 0:
            out.append((name, take))
            t += take
        if t >= end:
            break
    if t < end:
        out.append((OUTSIDE_PHASES, end - t))
    return out


def analyze_events(
    events: Iterable[TraceEvent],
    *,
    spans: Sequence[Mapping[str, Any]] = (),
) -> dict[str, CritPathResult]:
    """Critical-path analysis per model over a mixed event stream."""
    by_model: dict[str, list[TraceEvent]] = {}
    for e in events:
        by_model.setdefault(lane_model(e.lane), []).append(e)
    by_model.pop("", None)
    results: dict[str, CritPathResult] = {}
    single = len(by_model) == 1
    for model, evs in sorted(by_model.items()):
        segments = extract_critical_path(evs)
        busy: dict[int, float] = {}
        idle: dict[int, float] = {}
        ranks: set[int] = set()
        windows = _phase_windows(spans, model, single)
        idle_by_phase: dict[str, float] = {}
        for e in evs:
            r = lane_rank(e.lane)
            ranks.add(r)
            if e.lane.endswith(COMM_SUFFIX):
                continue
            if e.category == WAIT_CATEGORY:
                idle[r] = idle.get(r, 0.0) + e.duration
                if windows:
                    for ph, sec in _phase_split(windows, e.start, e.end):
                        idle_by_phase[ph] = idle_by_phase.get(ph, 0.0) + sec
            else:
                busy[r] = busy.get(r, 0.0) + e.duration
        path_by_phase: dict[str, float] = {}
        if windows:
            for s in segments:
                for ph, sec in _phase_split(windows, s.start, s.end):
                    path_by_phase[ph] = path_by_phase.get(ph, 0.0) + sec
        results[model] = CritPathResult(
            model=model,
            num_ranks=len([r for r in ranks if r >= 0]),
            t0=min(e.start for e in evs),
            t1=max(e.end for e in evs),
            segments=segments,
            busy_by_rank=busy,
            idle_by_rank=idle,
            idle_by_phase=idle_by_phase,
            path_by_phase=path_by_phase,
        )
    return results


def events_from_profiler(profiler: Any) -> list[TraceEvent]:
    """Adapt the rows of a live :class:`~repro.obs.events.Profiler`."""
    return [
        TraceEvent(lane, start, duration, category.value, label)
        for lane, start, duration, category, label in zip(*profiler.columns)
    ]


def analyze_session(tel: Any) -> dict[str, CritPathResult]:
    """Analyze a live telemetry session (no artifacts needed)."""
    spans = [s.to_dict() for s in tel.tracer.spans]
    return analyze_events(events_from_profiler(tel.profiler), spans=spans)


def load_trace_events(path: str | Path) -> list[TraceEvent]:
    """Read profiler (and comm) lanes back out of a ``trace.json``.

    Span events (pid 0) are skipped; ``:mem`` sub-lanes merge back into
    their rank lane; ``:comm`` lanes stay distinct.
    """
    from repro.perf.trace_export import SPAN_PID

    data = json.loads(Path(path).read_text())
    lanes: dict[tuple[int, int], str] = {}
    for ev in data.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            lanes[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    out: list[TraceEvent] = []
    for ev in data.get("traceEvents", []):
        if ev.get("ph") != "X" or ev.get("pid") == SPAN_PID:
            continue
        lane = lanes.get((ev["pid"], ev["tid"]), f"pid{ev['pid']}.tid{ev['tid']}")
        if lane.endswith(":mem"):
            lane = lane[: -len(":mem")]
        out.append(
            TraceEvent(
                lane=lane,
                start=ev["ts"] / 1e6,
                duration=ev.get("dur", 0.0) / 1e6,
                category=ev.get("args", {}).get("category", "host"),
                label=ev.get("name", ""),
            )
        )
    return out
