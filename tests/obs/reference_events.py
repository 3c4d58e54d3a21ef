"""The event record's interning as it stood before the one-pass ``_intern``.

Oracle for ``test_critpath_record.py``: ``_intern`` and ``from_columns``
below are an earlier ``repro.obs.events``'s bodies, moved here verbatim
(``from_columns`` was a classmethod of ``EventRecord``; ``cls`` is now an
argument). They define the ids, dtypes and tables ``Profiler.record()``
must reproduce. Do not "tidy" them.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.obs.events import EventRecord

_IDS = {"lane": "lanes", "category": "categories", "label": "labels"}


def from_columns(
    lane: Sequence[str],
    start: Sequence[float],
    duration: Sequence[float],
    category: Sequence[Any],
    label: Sequence[str],
    cls: type = EventRecord,
) -> "EventRecord":
    """Intern five equal-length columns; a category may be an enum
    member (a clock's) or its value."""
    tables: dict[str, dict[Any, int]] = {name: {} for name in _IDS}
    ids = {
        name: _intern(column, tables[name])
        for name, column in zip(_IDS, (lane, category, label))
    }
    return cls(
        start=np.array(start, dtype=np.float64),
        duration=np.array(duration, dtype=np.float64),
        **ids,
        lanes=tuple(tables["lane"]),
        categories=tuple(getattr(c, "value", c) for c in tables["category"]),
        labels=tuple(tables["label"]),
    )


def _intern(values: Sequence[Any], table: dict[Any, int]) -> np.ndarray:
    """Ids of ``values`` in ``table``, which grows in first-appearance order."""
    ids = [table.setdefault(v, len(table)) for v in values]
    return np.array(ids, dtype=np.int16 if len(table) < 2**15 else np.int32)
