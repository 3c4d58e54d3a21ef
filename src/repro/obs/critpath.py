"""Cross-rank critical-path reconstruction over telemetry traces.

A run's profiler lanes (one per rank, plus ``:comm`` lanes for PR 6's
detached overlapped-exchange clocks) tile simulated time completely: every
second on every rank is an event with a category and label. The *critical
path* is the chain of events that actually determined the wall clock --
compute on the slowest rank, the unhidden part of a halo exchange, an
allreduce butterfly -- extracted by walking backward from the last event:

* on a working event, the path consumes it and steps to its start;
* on an ``mpi_wait`` event, the wait is *caused elsewhere*: the walker
  jumps to the lane whose non-wait event covers that moment (the barrier
  laggard, or the same rank's detached communication clock during a
  ``halo_wait_residual``). These jumps are exactly the dependency edges
  the instrumentation encodes: halo ``begin -> finish`` pairs, allreduce
  rendezvous barriers, per-queue launch order;
* a wait with no working peer anywhere is genuine cost (every rank
  blocked on the same wire) and stays on the path.

By construction the extracted path tiles ``[t0, t1]`` -- its total equals
the simulated wall time (asserted to <=1% in tests and the CI gate), so
attributing the path per rank x category x kernel is a *decomposition* of
the wall clock, not a sample of it. ``repro critpath DIR`` renders the
tables; ``summarize_dir`` embeds the compact form.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.obs.events import EventRecord, sum_by_key

#: Category value whose time is caused by another lane (jump candidates).
WAIT_CATEGORY = "mpi_wait"

#: Lane suffix of detached communication clocks (overlapped exchanges).
COMM_SUFFIX = ":comm"

#: Synthetic category for unattributed holes in a lane's timeline.
IDLE_CATEGORY = "idle"

#: Blame groups, in render order.
BLAME_GROUPS = (
    "compute", "halo", "collectives", "launch", "memory", "mpi_other", "host",
    IDLE_CATEGORY,
)

_MEMORY_CATEGORIES = frozenset({"h2d", "d2h", "um_fault"})
_MPI_CATEGORIES = frozenset({"mpi_pack", "mpi_transfer", "mpi_wait"})


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


def blame_group(category: str, label: str) -> str:
    """Map one (category, label) to its blame group.

    ``halo`` collects everything the exchange engine charges (pack/unpack
    kernels, wire time, buffer init, posting/finish overhead, exchange
    barriers); ``collectives`` the allreduce family; the rest fall back to
    category-level groups.
    """
    if label.startswith(("halo_", "msg_")) or label.startswith("launch(halo_"):
        return "halo"
    if label.startswith("allreduce"):
        return "collectives"
    if category == "compute":
        return "compute"
    if category == "launch":
        return "launch"
    if category in _MEMORY_CATEGORIES:
        return "memory"
    if category in _MPI_CATEGORIES:
        return "mpi_other"
    if category == IDLE_CATEGORY:
        return IDLE_CATEGORY
    return "host"


def lane_model(lane: str) -> str:
    """Model prefix of a lane (``m0.rank1:comm`` -> ``m0``)."""
    return lane.split(".", 1)[0] if "." in lane else ""


def lane_rank(lane: str) -> int:
    """Rank index of a lane (``m0.rank1:comm`` -> 1); -1 if unparseable."""
    tail = lane.rsplit(".", 1)[-1]
    if tail.endswith(COMM_SUFFIX):
        tail = tail[: -len(COMM_SUFFIX)]
    if tail.startswith("rank"):
        try:
            return int(tail[4:])
        except ValueError:
            return -1
    return -1


class _Lane:
    """One lane's events sorted by (start, end), as parallel lists (``cats``
    and ``labels`` hold table ids), supporting covering-event queries."""

    __slots__ = ("name", "starts", "ends", "waits", "cats", "labels", "last_end")

    def __init__(self, name: str, record: EventRecord, rows: np.ndarray, wait_id: int) -> None:
        start = record.start[rows]
        end = start + record.duration[rows]
        order = np.lexsort((end, start))  # stable, like sorted()
        self.name = name
        self.starts = start[order].tolist()
        self.ends = end[order].tolist()
        self.cats = record.category[rows[order]].tolist()
        self.waits = [c == wait_id for c in self.cats]
        self.labels = record.label[rows[order]].tolist()
        self.last_end = max(self.ends)

    def covering(self, t: float, eps: float) -> int:
        """Index of the event containing ``t`` (start < t <= end), else -1."""
        idx = bisect_left(self.starts, t - eps) - 1
        return idx if idx >= 0 and self.ends[idx] >= t - eps else -1

    def latest_ending_before(self, t: float, eps: float) -> int:
        """Index of the latest event ending at or before ``t``, else -1."""
        idx = bisect_left(self.starts, t + eps) - 1
        for i in range(idx, -1, -1):
            if self.ends[i] <= t + eps:
                return i
        return -1


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
        rank_of = {lane: lane_rank(lane) for lane in {s.lane for s in self.segments}}
        for s in self.segments:
            r = rank_of[s.lane]
            out[r] = out.get(r, 0.0) + s.duration
        return out

    @property
    def by_blame(self) -> dict[str, float]:
        """Path seconds per blame group (halo / collectives / compute...)."""
        out: dict[str, float] = {}
        kinds = {(s.category, s.label) for s in self.segments}
        group_of = {kind: blame_group(*kind) for kind in kinds}
        for s in self.segments:
            g = group_of[s.category, s.label]
            out[g] = out.get(g, 0.0) + s.duration
        return out

    def blame_share(self, group: str) -> float:
        """Fraction of the critical path in one blame group (CI gate)."""
        total = self.path_total
        return self.by_blame.get(group, 0.0) / total if total > 0 else 0.0

    def top_contributors(self, n: int = 10) -> list[dict[str, Any]]:
        """Hottest (label, category) path contributors with rank blame."""
        agg: dict[tuple[str, str], dict[str, Any]] = {}
        rank_of = {lane: lane_rank(lane) for lane in {s.lane for s in self.segments}}
        for s in self.segments:
            key = (s.label or s.category, s.category)
            entry = agg.setdefault(
                key,
                {"label": key[0], "category": s.category, "seconds": 0.0,
                 "ranks": {}},
            )
            entry["seconds"] += s.duration
            r = rank_of[s.lane]
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


# -- extraction ---------------------------------------------------------------


def extract_critical_path(
    record: EventRecord,
    rows: np.ndarray | None = None,
    *,
    eps: float = 1e-12,
) -> list[PathSegment]:
    """Backward-walk the critical path through one model's lanes.

    The ``rows`` of ``record`` (default: all) must belong to one model
    (main and ``:comm`` lanes). Returns segments in increasing time order,
    tiling ``[t0, t1]``.
    """
    rows = np.arange(len(record)) if rows is None else rows
    rows = rows[record.duration[rows] > 0.0]
    if not len(rows):
        return []
    wait_id = record.category_id(WAIT_CATEGORY)
    lane_ids = record.lane[rows]
    present, first = np.unique(lane_ids, return_index=True)
    lanes = [  # in first-appearance order: it breaks ties between lanes
        _Lane(record.lanes[i], record, rows[lane_ids == i], wait_id)
        for i in present[np.argsort(first)].tolist()
    ]
    t0 = float(record.start[rows].min())
    lane = max(lanes, key=lambda ln: ln.last_end)

    segments: list[PathSegment] = []
    t = lane.last_end
    guard = 10 * len(rows) + 100
    while t > t0 + eps and guard > 0:
        guard -= 1
        i = lane.covering(t, eps)
        if i < 0:
            # Hole on this lane. Another lane may still be busy at t (the
            # walker stepped onto a comm lane that attached mid-run);
            # prefer continuing on a covering lane (non-wait first) ...
            cover = _covering_lane(lanes, t, eps)
            if cover is not None:
                lane = cover
                continue
            # ... else resume from the latest-ending event anywhere at or
            # before t, attributing the hole as idle.
            best = best_end = None
            for ln in lanes:
                j = ln.latest_ending_before(t, eps)
                if j >= 0 and (best is None or ln.ends[j] > best_end):
                    best, best_end = ln, ln.ends[j]
            if best is None:
                segments.append(PathSegment(lane.name, t0, t, IDLE_CATEGORY, ""))
                break
            if best_end < t - eps:
                segments.append(PathSegment(best.name, best_end, t, IDLE_CATEGORY, ""))
            t = min(t, best_end)
            lane = best
            continue
        if lane.waits[i]:
            # A wait is caused elsewhere: by the non-wait event covering t
            # on another lane, if there is one.
            blocker = _covering_lane(lanes, t, eps, skip=lane, waits=False)
            if blocker is not None:
                lane = blocker
                continue
        seg_start = max(lane.starts[i], t0)
        if t - seg_start > eps:
            segments.append(
                PathSegment(
                    lane.name, seg_start, t,
                    record.categories[lane.cats[i]], record.labels[lane.labels[i]],
                )
            )
        t = seg_start
    segments.reverse()
    return segments


def _covering_lane(
    lanes: Sequence[_Lane], t: float, eps: float, *,
    skip: _Lane | None = None, waits: bool = True,
) -> _Lane | None:
    """The lane (``skip`` aside) whose event covers ``t``: a working event
    before a wait (``waits=False``: never a wait), then the latest-ending,
    then the greater lane name."""
    best = best_key = None
    for ln in lanes:
        j = -1 if ln is skip else ln.covering(t, eps)
        if j < 0 or (ln.waits[j] and not waits):
            continue
        key = (not ln.waits[j], ln.ends[j], ln.name)
        if best is None or key > best_key:
            best, best_key = ln, key
    return best


# -- phase attribution --------------------------------------------------------


def _phase_windows(
    spans: Sequence[Mapping[str, Any]], model: str, single_model: bool
) -> list[tuple[float, float, str]]:
    """Phase windows (depth-1 ``step/*`` and ``setup/*`` spans) for one model.

    Spans carry their model via a ``model`` attr on the enclosing ``step``
    span (walked through ``parent_id``); dirs written before that
    annotation existed fall back to "all spans" when the session bound a
    single model, and to no phase attribution otherwise.
    """
    by_id = {s.get("span_id"): s for s in spans}

    def span_model(s: Mapping[str, Any]) -> str | None:
        seen = 0
        while s is not None and seen < 64:
            m = (s.get("attrs") or {}).get("model")
            if m is not None:
                return str(m)
            s = by_id.get(s.get("parent_id"))
            seen += 1
        return None

    windows: list[tuple[float, float, str]] = []
    for s in spans:
        name = s.get("name", "")
        if s.get("end") is None:
            continue
        is_phase = (s.get("depth") == 1 and name.startswith("step/")) or (
            s.get("depth") == 0 and name.startswith("setup/")
        )
        if not is_phase:
            continue
        m = span_model(s)
        if m is None and not single_model:
            continue
        if m is not None and m != model:
            continue
        insort(windows, (float(s["start"]), float(s["end"]), name))
    return windows


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
            out.append(("(outside phases)", w0 - t))
            t = w0
        take = min(w1, end) - t
        if take > 0:
            out.append((name, take))
            t += take
        if t >= end:
            break
    if t < end:
        out.append(("(outside phases)", end - t))
    return out


# -- analysis entry points ----------------------------------------------------


def analyze_record(
    record: EventRecord, *, spans: Sequence[Mapping[str, Any]] = ()
) -> dict[str, CritPathResult]:
    """Critical-path analysis per model over a mixed event record.

    Model, rank and comm-ness are read once per lane-table entry; busy and
    idle seconds accumulate in stream order, as a per-event loop would.
    """
    models = [lane_model(name) for name in record.lanes]
    rank_of_lane = np.array([lane_rank(name) for name in record.lanes], dtype=np.int64)
    comm_lane = np.array([name.endswith(COMM_SUFFIX) for name in record.lanes], dtype=bool)
    rows_of = {
        m: np.flatnonzero(np.array([x == m for x in models], dtype=bool)[record.lane])
        for m in sorted(set(models) - {""})
    }
    rows_of = {m: rows for m, rows in rows_of.items() if len(rows)}
    is_wait = record.category == record.category_id(WAIT_CATEGORY)
    end = record.start + record.duration
    results: dict[str, CritPathResult] = {}
    for model, rows in rows_of.items():
        segments = extract_critical_path(record, rows)
        windows = _phase_windows(spans, model, len(rows_of) == 1)
        lane_of = record.lane[rows]
        ranks = rank_of_lane[lane_of]
        main = ~comm_lane[lane_of]
        idle, busy = main & is_wait[rows], main & ~is_wait[rows]
        seconds = record.duration[rows]
        idle_by_phase: dict[str, float] = {}
        path_by_phase: dict[str, float] = {}
        if windows:
            waits = rows[idle]
            for t0, t1 in zip(record.start[waits].tolist(), end[waits].tolist()):
                for ph, sec in _phase_split(windows, t0, t1):
                    idle_by_phase[ph] = idle_by_phase.get(ph, 0.0) + sec
            for s in segments:
                for ph, sec in _phase_split(windows, s.start, s.end):
                    path_by_phase[ph] = path_by_phase.get(ph, 0.0) + sec
        results[model] = CritPathResult(
            model=model,
            num_ranks=int((np.unique(ranks) >= 0).sum()),
            t0=float(record.start[rows].min()),
            t1=float(end[rows].max()),
            segments=segments,
            busy_by_rank=sum_by_key(ranks[busy], seconds[busy]),
            idle_by_rank=sum_by_key(ranks[idle], seconds[idle]),
            idle_by_phase=idle_by_phase,
            path_by_phase=path_by_phase,
        )
    return results


def analyze_session(tel: Any) -> dict[str, CritPathResult]:
    """Analyze a live telemetry session (no artifacts needed)."""
    spans = [s.to_dict() for s in tel.tracer.spans]
    return analyze_record(tel.profiler.record(), spans=spans)


def analyze_dir(path: str | Path) -> dict[str, CritPathResult]:
    """Critical-path analysis of a finalized telemetry directory."""
    from repro.obs import telemetry as tmod
    from repro.obs.summary import _read_jsonl

    d = Path(path)
    record = EventRecord.load(d / tmod.EVENTS_FILE)
    return analyze_record(record, spans=_read_jsonl(d / tmod.SPANS_FILE))


# -- rendering ----------------------------------------------------------------


def render_result(result: CritPathResult, *, top: int = 10) -> str:
    """Full tables for one model's critical path."""
    from repro.util.tables import Table

    blocks = [
        f"critical path [{result.model}]: wall {result.wall * 1e3:.3f} ms, "
        f"path {result.path_total * 1e3:.3f} ms "
        f"(coverage {result.coverage * 100:.2f}%), "
        f"{result.num_ranks} rank(s), "
        f"load_imbalance_ratio {result.load_imbalance_ratio:.3f}"
    ]

    t = Table(
        ["category", "path (ms)", "share"],
        title="critical_path_seconds by category",
    )
    for cat, sec in sorted(result.by_category.items(), key=lambda kv: -kv[1]):
        t.add_row([cat, sec * 1e3, f"{sec / result.path_total * 100:5.1f}%"])
    blocks.append(t.render())

    t = Table(
        ["blame", "path (ms)", "share"], title="Blame groups on the path"
    )
    for g in BLAME_GROUPS:
        sec = result.by_blame.get(g)
        if sec:
            t.add_row([g, sec * 1e3, f"{result.blame_share(g) * 100:5.1f}%"])
    blocks.append(t.render())

    t = Table(
        ["label", "category", "worst rank", "path (ms)", "share"],
        title=f"Top path contributors (top {top})",
    )
    for e in result.top_contributors(top):
        t.add_row(
            [e["label"], e["category"], e["rank"], e["seconds"] * 1e3,
             f"{e['share'] * 100:5.1f}%"]
        )
    blocks.append(t.render())

    if result.path_by_phase:
        t = Table(
            ["phase", "path (ms)", "idle across ranks (ms)"],
            title="Per-phase path and idle time",
        )
        for ph, sec in sorted(result.path_by_phase.items(), key=lambda kv: -kv[1]):
            t.add_row([ph, sec * 1e3, result.idle_by_phase.get(ph, 0.0) * 1e3])
        blocks.append(t.render())

    if result.idle_by_rank:
        parts = ", ".join(
            f"rank{r}={v * 1e3:.3f}ms"
            for r, v in sorted(result.idle_by_rank.items())
        )
        blocks.append(f"idle (mpi_wait) by rank: {parts}")
    return "\n\n".join(blocks)


def render_compact(results: Mapping[str, CritPathResult]) -> str:
    """One-row-per-model table (embedded by ``summarize_dir``)."""
    from repro.util.tables import Table

    t = Table(
        ["model", "ranks", "wall (ms)", "path (ms)", "coverage", "top blame",
         "halo share", "imbalance"],
        title="Critical path per model",
    )
    for model, r in results.items():
        blame = r.by_blame
        top = max(blame, key=blame.get) if blame else "-"
        t.add_row(
            [
                model,
                r.num_ranks,
                r.wall * 1e3,
                r.path_total * 1e3,
                f"{r.coverage * 100:.2f}%",
                f"{top} {r.blame_share(top) * 100:.1f}%" if blame else "-",
                f"{r.blame_share('halo') * 100:.1f}%",
                f"{r.load_imbalance_ratio:.3f}",
            ]
        )
    return t.render()


def results_to_json(results: Mapping[str, CritPathResult]) -> dict[str, Any]:
    """The ``repro critpath --json`` document."""
    return {
        "schema": "repro-critpath/1",
        "models": {m: r.to_json() for m, r in results.items()},
    }
