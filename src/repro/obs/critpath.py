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
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.obs.events import EventRecord, sum_by_key
from repro.obs.reader import MPI_CATEGORIES, TelemetryDir, decode_spans

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
    if category in MPI_CATEGORIES:
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
    """One lane's events sorted by (start, end), as columns (``cat`` and
    ``label`` hold table ids), supporting covering-event queries.

    ``prev[i]`` is :meth:`covering` at event ``i``'s own start, computed
    for every event at once: where the walk goes after consuming event
    ``i``. ``chain[i]`` is ``prev[i]`` where the walk stays on this lane
    (a working event, and time left before ``t0``), else -1: a run of
    events on one lane follows that int list. The lists are built on a
    lane's first use, and most lanes are only ever searched, if at all."""

    def __init__(
        self, name: str, index: int, record: EventRecord, rows: np.ndarray,
        wait_id: int, t0: float, eps: float,
    ) -> None:
        start = record.start[rows]
        end = start + record.duration[rows]
        order = np.lexsort((end, start))  # stable, like sorted()
        rows = rows[order]
        self.name, self.index = name, index
        self.start, self.end = start[order], end[order]
        self.cat, self.label = record.category[rows], record.label[rows]
        self.wait = self.cat == wait_id
        prev = np.searchsorted(self.start, self.start - eps) - 1  # covering(start)
        prev[(prev < 0) | (self.end[prev] < self.start - eps)] = -1
        self.prev = prev
        self.stays = (prev >= 0) & ~self.wait[prev] & (self.start > t0 + eps)
        self.last_end = float(self.end.max())

    @cached_property
    def chain(self) -> list[int]:
        return np.where(self.stays, self.prev, -1).tolist()

    @cached_property
    def starts(self) -> list[float]:
        return self.start.tolist()

    @cached_property
    def ends(self) -> list[float]:
        return self.end.tolist()

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


@dataclass(frozen=True, eq=False)
class PathColumns:
    """A critical path as columns, in time order: one row per segment,
    ``lane`` / ``category`` / ``label`` ids into the three tables."""

    lane: np.ndarray
    start: np.ndarray
    end: np.ndarray
    category: np.ndarray
    label: np.ndarray
    lanes: tuple[str, ...]
    categories: tuple[str, ...]
    labels: tuple[str, ...]

    def kinds(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Per row, the id of its (category, label) pair; and the pairs."""
        width = len(self.labels)
        pairs, kind = np.unique(self.category.astype(np.int64) * width + self.label,
                                return_inverse=True)
        return kind, [(self.categories[p // width], self.labels[p % width]) for p in pairs.tolist()]

    def seconds_by(self, ids: np.ndarray, names: Sequence[Any]) -> dict[Any, float]:
        """Path seconds per ``names[ids[row]]``, in first-appearance order
        and summed in path order (``ids`` holds one id per row)."""
        merged: dict[Any, int] = {}
        canonical = np.array([merged.setdefault(n, len(merged)) for n in names], dtype=np.int64)
        keys = list(merged)
        sums = sum_by_key(canonical[ids], self.end - self.start)
        return {keys[k]: sec for k, sec in sums.items()}


@dataclass(eq=False)
class CritPathResult:
    """Critical path and derived attribution for one model.

    The path's aggregates (``path_total``, ``by_category``, ``by_rank``,
    ``by_blame``) are summed on its columns, once per result: a result is
    read, not edited.
    """

    model: str
    num_ranks: int
    t0: float
    t1: float
    path: PathColumns
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

    @cached_property
    def path_total(self) -> float:
        """Total attributed path length (== wall up to float eps)."""
        return sum((self.path.end - self.path.start).tolist())

    @property
    def coverage(self) -> float:
        """path_total / wall; the <=1% acceptance invariant."""
        return self.path_total / self.wall if self.wall > 0 else 1.0

    @cached_property
    def by_category(self) -> dict[str, float]:
        """``critical_path_seconds{category}``."""
        return self.path.seconds_by(self.path.category, self.path.categories)

    @cached_property
    def by_rank(self) -> dict[int, float]:
        """Path seconds attributed to each rank's lanes."""
        return self.path.seconds_by(self.path.lane, [lane_rank(ln) for ln in self.path.lanes])

    @cached_property
    def by_blame(self) -> dict[str, float]:
        """Path seconds per blame group (halo / collectives / compute...)."""
        kind, kinds = self.path.kinds()
        return self.path.seconds_by(kind, [blame_group(*k) for k in kinds])

    def blame_share(self, group: str) -> float:
        """Fraction of the critical path in one blame group (CI gate)."""
        total = self.path_total
        return self.by_blame.get(group, 0.0) / total if total > 0 else 0.0

    def top_contributors(self, n: int = 10) -> list[dict[str, Any]]:
        """Hottest (label, category) path contributors with rank blame.

        Seconds per key and per (key, rank) are summed on the columns in
        path order; keys and each key's ranks keep first-appearance order."""
        path = self.path
        kind, kinds = path.kinds()
        keys = [(label or category, category) for category, label in kinds]
        ranks = [lane_rank(ln) for ln in path.lanes]
        pairs, pair = np.unique(kind * len(ranks) + path.lane, return_inverse=True)
        by_rank: dict[tuple[str, str], dict[int, float]] = {}
        for (key, r), sec in path.seconds_by(
            pair, [(keys[p // len(ranks)], ranks[p % len(ranks)]) for p in pairs.tolist()]
        ).items():
            by_rank.setdefault(key, {})[r] = sec
        agg = [
            {"label": key[0], "category": key[1], "seconds": sec, "ranks": by_rank[key]}
            for key, sec in path.seconds_by(kind, keys).items()
        ]
        rows = sorted(agg, key=lambda e: -e["seconds"])[:n]
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
            "critical_path_seconds": dict(self.by_category),
            "blame": dict(self.by_blame),
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


def _walk(record: EventRecord, rows: np.ndarray | None = None, eps: float = 1e-12) -> PathColumns:
    """Backward-walk the critical path through one model's lanes.

    The ``rows`` of ``record`` (default: all) must belong to one model
    (main and ``:comm`` lanes). Returns the path's columns in increasing
    time order, tiling ``[t0, t1]``. Consuming an event steps to its
    lane's ``chain``; lanes are searched only at waits, holes and lane
    switches."""
    rows = np.arange(len(record)) if rows is None else rows
    rows = rows[record.duration[rows] > 0.0]
    tables = (tuple(record.categories) + (IDLE_CATEGORY,), tuple(record.labels) + ("",))
    if not len(rows):
        return _path_columns([], [], tables, eps)
    wait_id = record.category_id(WAIT_CATEGORY)
    t0 = float(record.start[rows].min())
    lane_ids = record.lane[rows]
    present, first = np.unique(lane_ids, return_index=True)
    lanes = [  # in first-appearance order: it breaks ties between lanes
        _Lane(record.lanes[i], k, record, rows[lane_ids == i], wait_id, t0, eps)
        for k, i in enumerate(present[np.argsort(first)].tolist())
    ]
    lane = max(lanes, key=lambda ln: ln.last_end)

    #: Backward in time: (lane, event indices, end of the first) per run of
    #: consumed events, (lane, None, (start, end)) per idle hole.
    walked: list[tuple[_Lane, list[int] | None, Any]] = []
    t = lane.last_end
    i = lane.covering(t, eps)
    guard = 10 * len(rows) + 100
    while t > t0 + eps and guard > 0:
        guard -= 1
        if i < 0:
            # Hole on this lane. Another lane may still be busy at t (the
            # walker stepped onto a comm lane that attached mid-run);
            # prefer continuing on a covering lane (non-wait first) ...
            cover = _covering_lane(lanes, t, eps)
            if cover is not None:
                lane = cover
                i = lane.covering(t, eps)
                continue
            # ... else resume from the latest-ending event anywhere at or
            # before t, attributing the hole as idle.
            best = best_end = None
            for ln in lanes:
                j = ln.latest_ending_before(t, eps)
                if j >= 0 and (best is None or ln.ends[j] > best_end):
                    best, best_end = ln, ln.ends[j]
            if best is None:
                walked.append((lane, None, (t0, t)))
                break
            if best_end < t - eps:
                walked.append((best, None, (best_end, t)))
            t = min(t, best_end)
            lane = best
            i = lane.covering(t, eps)
            continue
        if lane.wait[i]:
            # A wait is caused elsewhere: by the non-wait event covering t
            # on another lane, if there is one.
            blocker = _covering_lane(lanes, t, eps, skip=lane, waits=False)
            if blocker is not None:
                lane = blocker
                i = lane.covering(t, eps)
                continue
        # Consume event i, then the working events before it on this lane.
        run, chain = [i], lane.chain
        i = chain[i]
        while i >= 0 and guard > 0:
            guard -= 1
            run.append(i)
            i = chain[i]
        walked.append((lane, run, t))
        t = lane.starts[run[-1]]  # max(start, t0) is the start: t0 is the least
        i = int(lane.prev[run[-1]])
    return _path_columns(walked, lanes, tables, eps)


def _path_columns(
    walked: list[tuple[_Lane, list[int] | None, Any]],
    lanes: Sequence[_Lane],
    tables: tuple[tuple[str, ...], tuple[str, ...]],
    eps: float,
) -> PathColumns:
    """The walk's runs and holes as one :class:`PathColumns`, in time
    order. A run's events tile back from its end; a segment no longer than
    ``eps`` is dropped."""
    idle = np.array([len(tables[0]) - 1]), np.array([len(tables[1]) - 1])
    blocks = []
    for lane, run, span in walked:
        if run is None:
            blocks.append((np.array([lane.index]), np.array(span[:1]), np.array(span[1:]), *idle))
            continue
        idx = np.array(run)
        start = lane.start[idx]
        end = np.concatenate(([span], start[:-1]))
        keep = end - start > eps
        idx = idx[keep]
        blocks.append((np.full(len(idx), lane.index), start[keep], end[keep],
                       lane.cat[idx], lane.label[idx]))
    ints, floats = np.zeros(0, dtype=np.int64), np.zeros(0)
    columns = zip(*blocks) if blocks else ([ints], [floats], [floats], [ints], [ints])
    return PathColumns(
        *(np.concatenate(col)[::-1] for col in columns), tuple(ln.name for ln in lanes), *tables
    )


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
        if j < 0 or (ln.wait[j] and not waits):
            continue
        key = (not ln.wait[j], ln.ends[j], ln.name)
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
    single model, and to no phase attribution otherwise. Spans are read
    through the reader's span decoder; one without a ``start`` or an
    ``end`` is not a window.
    """
    spans = decode_spans(spans)
    by_id = {s["span_id"]: s for s in spans if s["span_id"] is not None}

    def span_model(s: Mapping[str, Any] | None) -> str | None:
        seen = 0
        while s is not None and seen < 64:
            if (m := s["attrs"].get("model")) is not None:
                return str(m)
            s = by_id.get(s["parent_id"])
            seen += 1
        return None

    windows: list[tuple[float, float, str]] = []
    for s in spans:
        name, start, end = s["name"], s["start"], s["end"]
        is_phase = (s["depth"] == 1 and name.startswith("step/")) or (
            s["depth"] == 0 and name.startswith("setup/")
        )
        if not is_phase or start is None or end is None:
            continue
        m = span_model(s)
        if m is None and not single_model:
            continue
        if m is not None and m != model:
            continue
        insort(windows, (start, end, name))
    return windows


#: Where seconds outside every phase window accrue.
OUTSIDE_PHASES = "(outside phases)"


def _phase_seconds(
    windows: list[tuple[float, float, str]], starts: np.ndarray, ends: np.ndarray
) -> dict[str, float]:
    """Seconds per phase of the intervals ``[starts, ends]``, split across
    the sorted phase windows.

    Seconds outside every window accrue to ``(outside phases)``: an
    interval spanning a phase boundary is clipped, not midpoint-binned.
    Every interval starts at the last window starting at or before it and
    advances one window per round, with a per-interval loop's float
    expressions in its order: skip a window that has ended, stop at one
    past the interval, charge the gap before a window outside, take the
    window's piece and ``t += take`` (which can fall short of the clip
    point), then charge the residual tail ``end - t`` outside. The pieces
    are summed in (interval, piece) order.
    """
    if not windows or not len(starts):
        return {}
    w0, w1 = (np.array(col, dtype=np.float64) for col in list(zip(*windows))[:2])
    names = list(dict.fromkeys([OUTSIDE_PHASES, *(w[2] for w in windows)]))
    key = np.array([names.index(w[2]) for w in windows])  # 0: outside phases
    n = len(windows)
    row = np.arange(len(starts))
    t, end = np.array(starts, dtype=np.float64), np.array(ends, dtype=np.float64)
    j = np.maximum(np.searchsorted(w0, t, side="right") - 1, 0)
    pieces: list[tuple[np.ndarray, ...]] = []  # (interval, order, key, seconds)
    order = 0
    while len(row):
        jc = np.minimum(j, n - 1)
        a, b = w0[jc], w1[jc]
        skip = (j < n) & (b <= t)
        meets = (j < n) & ~skip & (a < end)
        before, gap = meets & (a > t), a - t
        t = np.where(before, a, t)
        take = np.minimum(b, end) - t
        inside = meets & (take > 0)
        t = np.where(inside, t + take, t)
        going = skip | (meets & (t < end))
        tail = ~going & (t < end)
        for slot, mask, ids, seconds in (
            (0, before, 0, gap), (1, inside, key[jc], take), (2, tail, 0, end - t)
        ):
            pieces.append((row[mask], np.full(int(mask.sum()), order + slot),
                           np.broadcast_to(ids, row.shape)[mask], seconds[mask]))
        row, t, end, j = row[going], t[going], end[going], j[going] + 1
        order += 3
    interval, seq, keys, seconds = (np.concatenate(col) for col in zip(*pieces))
    ordered = np.lexsort((seq, interval))
    sums = sum_by_key(keys[ordered], seconds[ordered])
    return {names[k]: sec for k, sec in sums.items()}


# -- analysis entry points ----------------------------------------------------


def analyze_record(
    record: EventRecord, *, spans: Sequence[Mapping[str, Any]] = ()
) -> dict[str, CritPathResult]:
    """Critical-path analysis per model over a mixed event record.

    Model, rank and comm-ness are read once per lane-table entry; busy and
    idle seconds accumulate in stream order, as a per-event loop would.
    Phase attribution runs only when ``spans`` hold windows for a model.
    """
    spans = decode_spans(spans)
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
        path = _walk(record, rows)
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
            idle_by_phase = _phase_seconds(windows, record.start[waits], end[waits])
            path_by_phase = _phase_seconds(windows, path.start, path.end)
        results[model] = CritPathResult(
            model=model,
            num_ranks=int((np.unique(ranks) >= 0).sum()),
            t0=float(record.start[rows].min()),
            t1=float(end[rows].max()),
            path=path,
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
    tel = TelemetryDir(path)
    return analyze_record(tel.stream("events").required(), spans=tel.lines("spans"))


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
