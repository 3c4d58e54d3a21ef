"""The one reader of a finalized telemetry directory: every command that
reads a run back opens it as a :class:`TelemetryDir`, which decides where
each stream lives and what a missing or damaged one is; the commands only
word their notes and errors. A stream is parsed on first access, and the
event record's module (numpy) is imported only when ``events`` is read."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs import telemetry as tmod
from repro.obs.runlog import json_object


class JsonLines(list):
    """The JSON objects of a JSONL stream, in file order; ``skipped``
    counts the lines that were not UTF-8 or not a JSON object."""

    skipped = 0

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name


def skipped_note(lines: JsonLines) -> str:
    """The one note a damaged JSONL stream gets, naming it and the count."""
    return (f"skipped {lines.skipped} line(s) of {lines.name} "
            "that are not UTF-8 or not a JSON object")


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


def finite(value: Any) -> bool:
    """Whether a JSON value is a finite number (a record whose seconds are not is damaged)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
