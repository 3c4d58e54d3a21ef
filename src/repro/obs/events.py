"""The profiler and its event stream as one columnar record.

An event has one shape from the clock to every reader: ``(lane, start,
duration, category, label)``. The :class:`Profiler` (the analog of the
paper's NSIGHT timeline, Fig. 4) subscribes to simulated clocks and appends
each advance to five columns. Every reader of a run's time slices (critical
path, summary, ``--explain``, the Chrome-trace exporter, Fig. 4) works on an
:class:`EventRecord`: one row per event in stream order -- ``start`` and
``duration`` in float64 seconds, and ``lane`` / ``category`` / ``label`` ids
(int16; int32 once a table outgrows it) into three small interned tables
kept in first-appearance order. :meth:`EventRecord.from_columns` builds one
from the profiler's columns; a finalized telemetry directory holds the
record as ``events.npz``, written once and atomically and read back with no
Python object per event. What is a property of a lane or of a (category,
label) pair is resolved per table entry by the reader, never per row.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.clock import SimClock, TimeCategory

_FLOATS = ("start", "duration")
#: Id column -> the table it indexes.
_IDS = {"lane": "lanes", "category": "categories", "label": "labels"}


@dataclass(frozen=True, slots=True, eq=False)
class EventRecord:
    """Categorized time slices of one run, as columns."""

    start: np.ndarray
    duration: np.ndarray
    lane: np.ndarray
    category: np.ndarray
    label: np.ndarray
    lanes: tuple[str, ...]
    categories: tuple[str, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.start)

    def category_id(self, name: str) -> int:
        """Id of category ``name`` in this record's table; -1 when absent."""
        return self.categories.index(name) if name in self.categories else -1

    @classmethod
    def from_columns(
        cls,
        lane: Sequence[str],
        start: Sequence[float],
        duration: Sequence[float],
        category: Sequence[Any],
        label: Sequence[str],
    ) -> "EventRecord":
        """Intern five equal-length columns; a category may be an enum
        member (a clock's) or its value."""
        (lane, lanes), (category, categories), (label, labels) = (
            _intern(column) for column in (lane, category, label)
        )
        return cls(
            start=np.array(start, dtype=np.float64),
            duration=np.array(duration, dtype=np.float64),
            lane=lane,
            category=category,
            label=label,
            lanes=lanes,
            categories=tuple(getattr(c, "value", c) for c in categories),
            labels=labels,
        )

    def save(self, path: str | Path) -> Path:
        """Write the record as an ``.npz``: whole, or not at all."""
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        arrays = {name: getattr(self, name) for name in (*_FLOATS, *_IDS)}
        arrays.update((t, np.array(getattr(self, t), dtype=np.str_)) for t in _IDS.values())
        try:
            with tmp.open("wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return target

    @classmethod
    def load(cls, path: str | Path) -> "EventRecord":
        """Read and validate a saved record: ``FileNotFoundError`` when there
        is none, ``ValueError`` carrying a one-line reason for a torn, foreign
        or inconsistent file, so every reader degrades the same way."""
        import zipfile  # here, not at the top: 12 ms that every start-up would pay

        source = Path(path)
        if not source.is_file():
            raise FileNotFoundError(f"no {source.name} in {source.parent}")
        try:
            with np.load(source, allow_pickle=False) as data:
                cols = {name: data[name] for name in (*_FLOATS, *_IDS, *_IDS.values())}
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{type(exc).__name__}: {exc}".splitlines()[0]) from exc
        rows = cols["start"].shape
        for name in _FLOATS:
            a = cols[name]
            if a.ndim != 1 or a.shape != rows or a.dtype.kind != "f" or not np.isfinite(a).all():
                raise ValueError(f"column {name!r} is not {rows} finite floats")
        if (cols["duration"] < 0).any():
            raise ValueError("column 'duration' holds a negative time")
        for name, table in _IDS.items():
            ids, entries = cols[name], cols[table]
            if entries.ndim != 1 or entries.dtype.kind != "U":
                raise ValueError(f"table {table!r} is not a list of strings")
            if ids.shape != rows or ids.dtype.kind not in "iu" or (
                ids.size and not (0 <= ids.min() and ids.max() < len(entries))
            ):
                raise ValueError(f"column {name!r} does not index {table!r}")
            cols[table] = tuple(entries.tolist())
        return cls(**cols)


class ProfilerLane:
    """A clock's subscription to a weakly referenced :class:`Profiler`: ``add``
    observes the clock, appending each advance of positive length under ``lane``."""

    __slots__ = ("profiler", "lane", "_appends")

    def __init__(self, profiler: "Profiler", lane: str) -> None:
        self.profiler, self.lane = weakref.ref(profiler), lane
        self._appends = tuple(c.append for c in profiler.columns)

    def add(self, start: float, dt: float, category: TimeCategory, label: str) -> None:
        if dt > 0:
            lanes, starts, durations, categories, labels = self._appends
            lanes(self.lane)
            starts(start)
            durations(dt)
            categories(category)
            labels(label)


class Profiler:
    """Records every advance of its clocks as one row of :attr:`columns`."""

    __slots__ = ("columns", "_attached", "__weakref__")

    def __init__(self) -> None:
        #: ``(lane, start, duration, category, label)`` lists, row-aligned;
        #: ``category`` holds the clock's :class:`TimeCategory` members.
        self.columns: tuple[list, list, list, list, list] = ([], [], [], [], [])
        #: Live subscriptions: (clock id, lane) -> (clock, observer). Keyed so
        #: repeated attach() of the same lane is idempotent and detach() can
        #: unsubscribe (SimClock otherwise accumulates observers forever).
        self._attached: dict[tuple[int, str], tuple[SimClock, Any]] = {}

    def __len__(self) -> int:
        return len(self.columns[0])

    def attach(self, clock: SimClock, lane: str) -> None:
        """Start recording a clock's advances under ``lane``.

        Idempotent per ``(clock, lane)`` pair: attaching the same clock to
        the same lane twice records each advance once. Zero-length advances
        are not recorded.
        """
        key = (id(clock), lane)
        if key in self._attached:
            return
        observer = ProfilerLane(self, lane).add
        clock.subscribe(observer)
        self._attached[key] = (clock, observer)

    def extend(self, lanes, starts, durations, categories, labels) -> None:
        """Append rows given as five row-aligned columns."""
        for column, values in zip(self.columns, (lanes, starts, durations, categories, labels)):
            column.extend(values)

    def detach(self, clock: SimClock | None = None) -> int:
        """Unsubscribe from ``clock`` (or every clock); returns removals.

        Recorded rows are kept; use :meth:`clear` to drop them.
        """
        removed = 0
        for key, (c, obs) in list(self._attached.items()):
            if clock is None or c is clock:
                c.unsubscribe(obs)
                del self._attached[key]
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop all recorded rows (subscriptions stay live)."""
        for column in self.columns:
            column.clear()

    @property
    def attached_count(self) -> int:
        """Number of live (clock, lane) subscriptions."""
        return len(self._attached)

    def record(self) -> EventRecord:
        """The rows recorded so far, as an :class:`EventRecord`."""
        return EventRecord.from_columns(*self.columns)


class _Table(dict):
    """Value -> id, in first-appearance order: a lookup of a value not yet
    in the table enters it with the next id."""

    def __missing__(self, value: Any) -> int:
        self[value] = n = len(self)
        return n


def _intern(values: Sequence[Any]) -> tuple[np.ndarray, tuple[Any, ...]]:
    """Ids of ``values`` and the table they index (first-appearance order).
    One C-level pass of lookups; only a new value runs Python."""
    table = _Table()
    ids = np.fromiter(map(table.__getitem__, values), dtype=np.int32, count=len(values))
    return ids.astype(np.int16) if len(table) < 2**15 else ids, tuple(table)


def sum_by_key(keys: np.ndarray, weights: np.ndarray) -> dict[int, float]:
    """``{key: sum of its weights}``, keys in first-appearance order.
    ``np.bincount`` adds in index order, so each sum is the float a
    ``d[k] = d.get(k, 0.0) + w`` loop over the stream would produce."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return {int(uniq[i]): float(sums[i]) for i in np.argsort(first)}
