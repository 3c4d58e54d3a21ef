"""Export an event record (and telemetry spans) as Chrome Trace JSON.

``chrome://tracing`` / Perfetto open these files and render the same
picture as Fig. 4's NSIGHT screenshot -- compute rows per GPU with
transfer rows underneath. Complements the ASCII renderer for interactive
inspection.

Telemetry spans (:mod:`repro.obs.tracing`) merge into the same file as a
separate process (pid 0, named ``spans``) so Perfetto draws the
hierarchical step/solver spans *above* the per-rank profiler lanes
(pid 1): both share the simulated-seconds timebase. Detached
communication-clock lanes (``<lane>:comm``, overlapped halo exchanges)
render as a third process (pid 2) so hidden traffic appears parallel to
the main rank tracks instead of interleaved with them.

The source is an :class:`~repro.obs.events.EventRecord` -- a live
profiler's ``record()`` or a finalized directory's ``events.npz`` -- so a
finalized telemetry directory exports the trace a live session would
(``repro telemetry DIR --chrome-trace OUT.json``; spans then come from
``spans.jsonl`` as dicts); both are read through
:func:`repro.obs.reader.decode_spans`.

Format reference: the Trace Event Format's "complete" events
(``"ph": "X"``) with microsecond timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.events import EventRecord
from repro.obs.reader import Records, decode_spans
from repro.runtime.clock import TimeCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import Span

#: Spans as the tracer holds them, or as ``spans.jsonl`` rows.
Spans = Sequence["Span | Mapping[str, Any]"]

#: Trace category per clock category value (drives Perfetto's coloring).
_TRACE_CATEGORY = {
    TimeCategory.COMPUTE.value: "kernel",
    TimeCategory.MPI_PACK.value: "kernel,mpi",
    TimeCategory.LAUNCH.value: "overhead",
    TimeCategory.UM_FAULT.value: "memory",
    TimeCategory.H2D.value: "memory",
    TimeCategory.D2H.value: "memory",
    TimeCategory.MPI_TRANSFER.value: "mpi",
    TimeCategory.MPI_WAIT.value: "mpi",
    TimeCategory.HOST.value: "host",
}

#: Transfer-ish categories land on a separate 'mem' thread row per lane,
#: like NSIGHT's memory rows (Fig. 4's timeline draws the same rows).
MEM_CATEGORIES = frozenset(
    c.value
    for c in (TimeCategory.UM_FAULT, TimeCategory.H2D, TimeCategory.D2H, TimeCategory.MPI_TRANSFER)
)

#: Process ids: spans draw above the profiler lanes; detached
#: communication clocks (overlapped halo exchanges) get their own
#: process so hidden traffic renders parallel to -- not interleaved
#: with -- the main rank tracks.
SPAN_PID = 0
PROFILER_PID = 1
COMM_PID = 2

#: Lane suffix the telemetry session uses for detached comm clocks.
COMM_LANE_SUFFIX = ":comm"


def _event_json(
    lane: str, category: str, label: str, ts: float, dur: float,
    tids: dict[str, int], pid: int,
) -> dict:
    lane += ":mem" if category in MEM_CATEGORIES else ""
    tid = tids.setdefault(lane, len(tids))
    return {
        "name": label or category,
        "cat": _TRACE_CATEGORY.get(category, "other"),
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
        "args": {"category": category},
    }


def _span_json(s: Mapping[str, Any], tids: dict[str, int]) -> dict:
    """A decoded span as a complete event."""
    attrs = s["attrs"]
    lane = str(attrs.get("lane", "spans"))
    tid = tids.setdefault(lane, len(tids))
    end = s["start"] if s["end"] is None else s["end"]
    return {
        "name": s["name"],
        "cat": "span",
        "ph": "X",
        "ts": s["start"] * 1e6,
        "dur": (end - s["start"]) * 1e6,
        "pid": SPAN_PID,
        "tid": tid,
        "args": {
            "span_id": s["span_id"],
            "parent_id": s["parent_id"],
            "depth": s["depth"],
            **{k: _scalar(v) for k, v in attrs.items()},
        },
    }


def _scalar(v: object) -> object:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def _process_meta(pid: int, name: str, tids: dict[str, int]) -> list[dict]:
    """Thread names, then the process name, of one process with events."""
    if not tids:
        return []
    threads = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": lane}}
        for lane, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return [*threads, {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": name}}]


def to_chrome_trace(record: EventRecord, *, spans: Spans = ()) -> dict:
    """Build the trace dict (``traceEvents`` plus thread/process names)."""
    if not len(record) and not spans:
        raise ValueError("no events to export")
    tids: dict[str, int] = {}
    comm_tids: dict[str, int] = {}
    #: Per lane-table entry: where its events go.
    homes = [
        (comm_tids, COMM_PID) if COMM_LANE_SUFFIX in lane else (tids, PROFILER_PID)
        for lane in record.lanes
    ]
    events = [
        _event_json(
            record.lanes[lane], record.categories[cat], record.labels[label],
            ts, dur, *homes[lane],
        )
        for lane, cat, label, ts, dur in zip(
            record.lane.tolist(), record.category.tolist(), record.label.tolist(),
            (record.start * 1e6).tolist(), (record.duration * 1e6).tolist(),
        )
    ]
    metadata = _process_meta(PROFILER_PID, "profiler", tids)
    metadata += _process_meta(COMM_PID, "comm (overlapped)", comm_tids)
    if spans:
        if not isinstance(spans, Records):
            spans = decode_spans([s if isinstance(s, Mapping) else s.to_dict() for s in spans])
        span_tids: dict[str, int] = {}
        events += [_span_json(s, span_tids) for s in spans if s["start"] is not None]
        metadata += _process_meta(SPAN_PID, "spans", span_tids)
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(record: EventRecord, path: str | Path, *, spans: Spans = ()) -> Path:
    """Write the trace JSON to disk; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(to_chrome_trace(record, spans=spans)))
    return target
