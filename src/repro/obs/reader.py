"""The one reader of a finalized telemetry directory: every command that
reads a run back opens it as a :class:`TelemetryDir`, which decides where
each stream lives and what a missing or damaged one is, and decodes its
records with one decoder per kind (:func:`decode_steps`,
:func:`decode_spans`, :func:`decode_metrics`, :func:`decode_models`,
:func:`decode_members`); the commands only word their notes and errors.
A stream is parsed on first access, and the event record's module
(numpy) is imported only when ``events`` is read."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.obs import telemetry as tmod
from repro.obs.runlog import json_object


class _Counted:
    """What one stream held, named after its file; ``skipped`` counts what
    was dropped, as :attr:`dropped` words it."""

    skipped = 0
    dropped = "record(s) of {} with a field of the wrong type"

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name


class JsonLines(_Counted, list):
    """The JSON objects of a JSONL stream, in file order, less the lines
    that were not UTF-8 or not a JSON object."""

    dropped = "line(s) of {} that are not UTF-8 or not a JSON object"


class Records(_Counted, list):
    """The decoded records of one stream, in file order, less those with a wrong-typed field."""


class Metrics(_Counted, dict):
    """A decoded metrics snapshot: family name -> its samples, in file order."""


def skipped_notes(*streams: _Counted) -> list[str]:
    """One note per stream that dropped something, naming it and the count."""
    return [f"skipped {s.skipped} {s.dropped.format(s.name)}" for s in streams if s.skipped]


def read_jsonl(path: Path) -> JsonLines:
    """The JSON objects of a JSONL file, one per line, read as bytes."""
    out = JsonLines(path.name)
    for line in path.read_bytes().splitlines():
        if not (line := line.strip()):
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            out.append(obj)
        else:
            out.skipped += 1
    return out


# -- decoders: a record keeps every field a reader computes with ----------------


#: Categories whose sum is "MPI time" in the paper's Fig. 3 accounting.
MPI_CATEGORIES = ("mpi_pack", "mpi_transfer", "mpi_wait")

#: Per-kernel roofline families: one sample per kernel spec, whose values
#: the roofline computes with, so finite whatever type the family declares.
ROOFLINE_FAMILIES = frozenset({"kernel_seconds_total", "kernel_bytes_total", "kernel_flops_total",
                               "kernel_calls_total", "kernel_sol_fraction"})

#: The least integer ``float()`` overflows on: the midpoint between the
#: largest float and 2**1024.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is(*types: type) -> Callable[[Any], bool]:
    """A value of ``types``, not a bool; an integer must convert to a float."""
    return lambda value: (isinstance(value, types) and not isinstance(value, bool)
                          and not (isinstance(value, int) and abs(value) >= _FLOAT_OVERFLOW))


_number = _is(int, float)  # NaN included: dt and sim_time are NaN past a non-finite member


def _finite(value: Any) -> bool:
    return _number(value) and math.isfinite(value)


def _of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """An object whose every value passes ``test``."""
    return lambda value: isinstance(value, dict) and all(map(test, value.values()))


#: Per record kind, field -> (test a present value passes, value when absent).
#: A record failing a test is dropped, except on a field of ``_OPTIONAL``,
#: which then reads as absent; a ``_REQUIRED`` field has no absent value.
#: Under ``_OTHERS``, the test every field the table does not name passes.
_REQUIRED = object()
_OTHERS = object()
_OPTIONAL = frozenset({"span_id", "parent_id", "attrs"})
_ANY = (lambda value: True)
STEP = {"dt": (_number, 0.0), "sim_time": (_number, 0.0), "wall": (_finite, 0.0),
        "mpi": (_finite, 0.0), "compute": (_finite, 0.0), "launches": (_is(int), 0),
        "categories": (_of(_finite), {})}
SPAN = {"name": (_is(str), _REQUIRED), "start": (_finite, None),
        "end": (lambda v: v is None or _finite(v), None), "duration": (_finite, 0.0),
        "depth": (_ANY, 0), "span_id": (_is(int, str), None),
        "parent_id": (_is(int, str), None), "attrs": (_is(dict), {})}
MACHINE = {"name": (_is(str), "unknown"), "mem_bandwidth": (_finite, 0.0), "flops": (_finite, 0.0)}
MODEL = {"index": (_ANY, "?"), "version": (_ANY, "?"), "shape": (_is(list), ()),
         "num_ranks": (_ANY, "?"), "unified_memory": (_ANY, None),
         "machine": (lambda v: v is None or _fields(v, MACHINE) is not None, None)}
FAMILY = {"type": (_is(str), "gauge"), "samples": (_is(list), [])}
#: A histogram's samples read ``sum`` and ``count``, the others ``value``.
SAMPLE = {"labels": (_of(_is(str)), {}), "value": (_number, 0.0), "sum": (_number, 0.0),
          "count": (_is(int), 0)}
COUNTER_SAMPLE = {**SAMPLE, "value": (_finite, 0.0)}
#: A ``repro sweep`` member row (``MasModel.ensemble_report``); every other
#: field is a varied parameter. An absent field reads as None.
MEMBER = {"member": (_is(int), None), "sim_time": (_number, None),
          "dt": (lambda v: v is None or _number(v), None), "pcg_iterations": (_is(int), None),
          "pcg_converged": (_is(int), None), "pcg_breakdown": (lambda v: isinstance(v, bool), None),
          _OTHERS: (_finite, None)}


def _fields(record: Any, fields: dict) -> dict | None:
    """``record`` as exactly ``fields`` (after its ``_OTHERS`` fields, in
    record order), absent ones at their default; None to drop it."""
    if not isinstance(record, dict):
        return None
    out = {}
    if _OTHERS in fields:
        others = {key: value for key, value in record.items() if key not in fields}
        if not all(map(fields[_OTHERS][0], others.values())):
            return None
        out.update(others)
    for key, (test, absent) in fields.items():
        if key is _OTHERS:
            continue
        if key not in record:
            if absent is _REQUIRED:
                return None
            out[key] = absent
        elif test(value := record[key]):
            out[key] = value
        elif key in _OPTIONAL:
            out[key] = absent
        else:
            return None
    return out


def _decode(name: str, records: Iterable[Any], fields: dict) -> Records:
    out = Records(name)
    for record in records:
        if (decoded := _fields(record, fields)) is None:
            out.skipped += 1
        else:
            out.append(decoded)
    return out


def decode_steps(log: JsonLines) -> Records:
    """The ``step`` records of a run log, decoded by :data:`STEP`."""
    return _decode(log.name, (r for r in log if r.get("event") == "step"), STEP)


def decode_spans(spans: Iterable[Mapping[str, Any]]) -> Records:
    """``spans.jsonl`` rows or live ``Span.to_dict()`` records, decoded by
    :data:`SPAN` (``start`` None: not placeable; ``end`` None: unfinished).
    Decoded spans pass through."""
    if isinstance(spans, Records):
        return spans
    return _decode(getattr(spans, "name", tmod.SPANS_FILE), spans, SPAN)


def decode_models(manifest: Mapping[str, Any] | None) -> Records:
    """A manifest's ``models`` by :data:`MODEL`, machines by :data:`MACHINE`
    (a ``models`` that is not a list is one dropped record)."""
    models = (manifest or {}).get("models") or []
    out = _decode(tmod.MANIFEST_FILE, models if isinstance(models, list) else [None], MODEL)
    for model in out:
        model["machine"] = model["machine"] and _fields(model["machine"], MACHINE)
    return out


def decode_members(sweep: Mapping[str, Any] | None) -> Records:
    """A ``sweep.json``'s ``member_rows`` by :data:`MEMBER`, varied fields
    first in row order (a ``member_rows`` that is not a list is one
    dropped record)."""
    rows = (sweep or {}).get("member_rows") or []
    return _decode(tmod.SWEEP_FILE, rows if isinstance(rows, list) else [None], MEMBER)


def decode_metrics(metrics: Mapping[str, Any] | None,
                   name: str = tmod.METRICS_JSON_FILE) -> Metrics:
    """A ``metrics.json`` dict or ``MetricsRegistry.to_json()``: each family's
    samples by :data:`SAMPLE` (counters and :data:`ROOFLINE_FAMILIES` by
    :data:`COUNTER_SAMPLE`), with the family type as ``kind`` (a family
    that is not an object, or whose ``samples`` is not a list, is one
    dropped record). Decoded snapshots pass through."""
    if isinstance(metrics, Metrics):
        return metrics
    out = Metrics(name)
    for family, fam in (metrics or {}).items():
        if (fam := _fields(fam, FAMILY)) is None:
            out.skipped += 1
            continue
        kind = fam["type"]
        finite = kind == "counter" or family in ROOFLINE_FAMILIES
        out[family] = _decode(name, fam["samples"], COUNTER_SAMPLE if finite else SAMPLE)
        out.skipped += out[family].skipped
        for sample in out[family]:
            sample["kind"] = kind
    return out


def _event_record(path: Path) -> Any:
    from repro.obs.events import EventRecord

    return EventRecord.load(path)


@dataclass(frozen=True, slots=True)
class Stream:
    """One file as read: its parsed ``value``, or ``missing``, or the
    one-line ``error`` that makes it unreadable."""

    path: Path
    value: Any = None
    missing: bool = False
    error: str | None = None

    @property
    def name(self) -> str:
        return self.path.name

    def required(self) -> Any:
        """The value; else ``FileNotFoundError`` or ``ValueError`` saying why."""
        if self.missing:
            raise FileNotFoundError(f"no {self.name} in {self.path.parent}")
        if self.error is not None:
            raise ValueError(self.error)
        return self.value


def read_stream(path: Path, parse: Callable[[Path], Any]) -> Stream:
    """``parse(path)``; missing if not a file, unreadable on ``OSError`` or ``ValueError``."""
    if not path.is_file():
        return Stream(path, missing=True)
    try:
        return Stream(path, parse(path))
    except (OSError, ValueError) as exc:
        return Stream(path, error=str(exc))


class TelemetryDir:
    """A finalized telemetry directory; each stream is read once, on first access."""

    #: stream -> (file name, parser)
    LAYOUT: dict[str, tuple[str, Callable[[Path], Any]]] = {
        "manifest": (tmod.MANIFEST_FILE, json_object),
        "log": (tmod.LOG_FILE, read_jsonl),
        "spans": (tmod.SPANS_FILE, read_jsonl),
        "metrics": (tmod.METRICS_JSON_FILE, json_object),
        "events": (tmod.EVENTS_FILE, _event_record),
        "sweep": (tmod.SWEEP_FILE, json_object),
    }

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.is_dir():
            raise FileNotFoundError(f"telemetry directory {self.path} does not exist")
        self._streams: dict[str, Stream] = {}

    def stream(self, key: str) -> Stream:
        """The stream ``key`` of :attr:`LAYOUT`, parsed on first access."""
        if key not in self._streams:
            name, parse = self.LAYOUT[key]
            self._streams[key] = read_stream(self.path / name, parse)
        return self._streams[key]

    def lines(self, key: str) -> JsonLines:
        """The records of the JSONL stream ``key``: none when it is missing or unreadable."""
        stream = self.stream(key)
        return JsonLines(stream.name) if stream.value is None else stream.value

    def rotated_metrics(self) -> Stream | None:
        """The newest readable metrics snapshot a long run rotated out, or None."""
        for i in range(1, tmod.METRICS_SNAPSHOT_KEEP + 1):
            rotated = read_stream(self.path / f"{tmod.METRICS_JSON_FILE}.{i}", json_object)
            if rotated.value is not None:
                return rotated
        return None
