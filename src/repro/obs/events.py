"""The profiler's event stream as one columnar record.

Every reader of a run's time slices (critical path, summary, ``--explain``,
the Chrome-trace exporter) works on an :class:`EventRecord`: one row per
event in stream order -- ``start`` and ``duration`` in float64 seconds, and
``lane`` / ``category`` / ``label`` ids (int16; int32 once a table outgrows
it) into three small interned tables kept in first-appearance order. A live
profiler converts once (:meth:`EventRecord.from_events`); a finalized
telemetry directory holds the record as ``events.npz``, written once and
atomically and read back with no Python object per event. What is a property
of a lane or of a (category, label) pair is resolved per table entry by the
reader, never per row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

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
    def from_events(cls, events: Iterable[Any]) -> "EventRecord":
        """Intern ``lane/start/duration/category/label`` objects (profiler
        events, whose category is an enum, or plain-string trace events)."""
        events = events if isinstance(events, (list, tuple)) else list(events)
        tables: dict[str, dict[Any, int]] = {name: {} for name in _IDS}
        columns = {
            name: _intern((getattr(e, name) for e in events), table)
            for name, table in tables.items()
        }
        return cls(
            start=np.array([e.start for e in events], dtype=np.float64),
            duration=np.array([e.duration for e in events], dtype=np.float64),
            **columns,
            lanes=tuple(tables["lane"]),
            categories=tuple(getattr(c, "value", c) for c in tables["category"]),
            labels=tuple(tables["label"]),
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


def _intern(values: Iterable[Any], table: dict[Any, int]) -> np.ndarray:
    """Ids of ``values`` in ``table``, which grows in first-appearance order."""
    ids = [table.setdefault(v, len(table)) for v in values]
    return np.array(ids, dtype=np.int16 if len(table) < 2**15 else np.int32)


def sum_by_key(keys: np.ndarray, weights: np.ndarray) -> dict[int, float]:
    """``{key: sum of its weights}``, keys in first-appearance order.
    ``np.bincount`` adds in index order, so each sum is the float a
    ``d[k] = d.get(k, 0.0) + w`` loop over the stream would produce."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return {int(uniq[i]): float(sums[i]) for i in np.argsort(first)}
