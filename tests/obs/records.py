"""Shared helpers: event records for tests, written through the real writer.

No test hand-rolls the ``events.npz`` format: a record comes from
``(lane, start, duration, category, label)`` rows through the builder the
profiler uses (:func:`record_of`, :func:`write_record`), and the ways a file
gets damaged are listed once in :data:`DAMAGE` (the event record) and
:data:`JSON_DAMAGE` (the JSON streams) so every reader is tested against
the same corrupt files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.obs.events import EventRecord
from repro.obs.telemetry import EVENTS_FILE
from repro.perf.trace_export import to_chrome_trace

#: Two ranks, one wait: enough for a one-row critical-path table.
SMALL_ROWS = (
    ("m0.rank0", 0.0, 1.0, "compute", "k"),
    ("m0.rank0", 1.0, 0.5, "mpi_wait", "allreduce"),
    ("m0.rank1", 0.0, 1.5, "compute", "slow"),
)


def record_of(rows=()) -> EventRecord:
    """Record of ``(lane, start, duration, category, label)`` rows."""
    return EventRecord.from_columns(*(tuple(zip(*rows)) or ((),) * 5))


def write_record(directory, rows=()) -> Path:
    """Write ``rows`` as ``directory``'s event record; returns its path."""
    return record_of(rows).save(Path(directory) / EVENTS_FILE)


def exported_trace(directory) -> dict:
    """The Chrome trace ``repro telemetry DIR --chrome-trace`` would write."""
    from repro.obs.reader import TelemetryDir

    tel = TelemetryDir(directory)
    return to_chrome_trace(
        tel.stream("events").required(), spans=tel.lines("spans")
    )


def _rewrite(path: Path, **replace) -> None:
    """Re-save the ``.npz`` at ``path`` with some arrays replaced/dropped."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    for name, value in replace.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    with path.open("wb") as fh:
        np.savez(fh, **arrays)


def _truncate(path: Path) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _set_first(path: Path, column: str, value: float) -> None:
    with np.load(path, allow_pickle=False) as data:
        values = data[column].copy()
    values[0] = value
    _rewrite(path, **{column: values})


#: name -> function damaging a valid ``events.npz`` in place.
DAMAGE = {
    "truncated": _truncate,
    "zero_bytes": lambda p: p.write_bytes(b""),
    "missing_column": lambda p: _rewrite(p, duration=None),
    "ids_past_table": lambda p: _rewrite(p, lane=np.array([0, 0, 7], dtype=np.int16)),
    "nan_start": lambda p: _set_first(p, "start", np.nan),
    "negative_duration": lambda p: _set_first(p, "duration", -0.5),
    "string_column": lambda p: _rewrite(p, start=np.array(["0", "1", "2"])),
    "not_an_npz": lambda p: p.write_text(json.dumps({"traceEvents": []})),
}


def _truncate_mid_line(path: Path) -> None:
    """Cut the file inside a line, as a killed writer leaves it: never
    just after a newline or just before one, where what is left would still
    be whole lines."""
    blob = path.read_bytes()
    cut = len(blob) // 2
    while cut > 1 and b"\n" in blob[cut - 1 : cut + 1]:
        cut -= 1
    path.write_bytes(blob[:cut])


def _with_line(line: bytes):
    def damage(path: Path) -> None:
        path.write_bytes(path.read_bytes() + line)
    return damage


def _latin1_byte(path: Path) -> None:
    """A byte that is not UTF-8 inside the first line."""
    blob = path.read_bytes()
    cut = min(len(blob), max(1, blob.find(b"\n") // 2))
    path.write_bytes(blob[:cut] + b"\xff" + blob[cut:])


#: name -> function damaging a JSON stream (``manifest.json``,
#: ``log.jsonl``, ``spans.jsonl``) in place.
JSON_DAMAGE = {
    "truncated_mid_line": _truncate_mid_line,
    "non_object_line": _with_line(b"[1, 2]\n"),
    "non_utf8_byte": _latin1_byte,
    "empty_file": lambda p: p.write_bytes(b""),
    "deleted": lambda p: p.unlink(),
    "wrong_top_level_type": lambda p: p.write_text(json.dumps(["not", "an", "object"]) + "\n"),
}
