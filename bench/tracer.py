"""In-memory span tracer installed from outside the program.

A traced round wraps the public callables of each ``repro`` layer by
attribute replacement (restored on exit, nothing in ``src/`` is edited)
and records one span (name, start, end, parent) per call. Spans stay in
memory until the round ends; :func:`self_times` then gives each span its
duration minus the part its child spans cover, and :func:`fold` sums
those per metric key (``runtime.dispatch``, ``mas.kernel_body``, ...).
The program is single-threaded, so sibling spans never overlap and self
times sum exactly to the root's duration.

Spans live in four parallel lists of ints and floats rather than one
object per span: half a million small containers would put the cyclic
garbage collector to work inside the very region being timed.

A callable that usually returns within a microsecond (the machine
model's pricing primitives, a ``sync`` with nothing buffered) would cost
more to span than to run. Such callables are counted on every call and
spanned on every ``sample``-th; a sampled span stands for ``sample``
calls, so its self time is scaled up and the same scaled time is taken
off its parent. Totals stay exact; the split between a sampled callable
and its callers is an estimate.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Key a halo-issued kernel body is re-attributed to (see :func:`fold`).
PACK_BODY_KEY = "mpi.pack_body"
_BODY_KEY = "mas.kernel_body"
_HALO_KEY = "mpi.halo"


@dataclass
class Spans:
    """Column store: span ``i`` is ``(name_id[i], start[i], end[i],
    parent[i])``; a parent always precedes its children, roots have
    parent -1."""

    name_id: list[int] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)

    @classmethod
    def from_rows(cls, rows: list[tuple[int, float, float, int]]) -> "Spans":
        return cls(*(list(col) for col in zip(*rows))) if rows else cls()

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]


class _Span:
    """Context manager recording one span around harness code; wrappers
    inline the same steps in :meth:`Tracer._wrap_call`."""

    __slots__ = ("tracer", "name_id", "index", "outer")

    def __init__(self, tracer: "Tracer", name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> None:
        t, s = self.tracer, self.tracer.spans
        self.outer = t.current
        self.index = t.current = len(s.start)
        s.name_id.append(self.name_id)
        s.parent.append(self.outer)
        s.end.append(0.0)
        s.start.append(time.perf_counter())

    def __exit__(self, *exc: Any) -> None:
        self.tracer.spans.end[self.index] = time.perf_counter()
        self.tracer.current = self.outer


class _SpannedContext:
    """Wraps a context manager so entering and leaving it are spans while
    the body of the ``with`` is not (the body's own calls are spans)."""

    __slots__ = ("tracer", "inner", "enter_id", "exit_id")

    def __init__(self, tracer: "Tracer", inner: Any, enter_id: int, exit_id: int) -> None:
        self.tracer = tracer
        self.inner = inner
        self.enter_id = enter_id
        self.exit_id = exit_id

    def __enter__(self) -> Any:
        with _Span(self.tracer, self.enter_id):
            return self.inner.__enter__()

    def __exit__(self, *exc: Any) -> Any:
        with _Span(self.tracer, self.exit_id):
            return self.inner.__exit__(*exc)


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []     # span name per name_id
        self.keys: list[str] = []      # metric key per name_id
        self.weights: list[int] = []   # calls one span of this name stands for
        self.calls: dict[int, list[int]] = {}  # exact call count of sampled names
        self.spans = Spans()
        self.current = -1
        self._patches: list[tuple[Any, str, Any]] = []
        self._harness_ids: dict[tuple[str, str], int] = {}

    # -- names ---------------------------------------------------------------

    def name_id(self, name: str, key: str) -> int:
        """Register a span name under a metric key."""
        self.names.append(name)
        self.keys.append(key)
        self.weights.append(1)
        return len(self.names) - 1

    def span(self, name: str, key: str) -> _Span:
        """A span around harness code (the root of a traced round)."""
        if (name, key) not in self._harness_ids:
            self._harness_ids[name, key] = self.name_id(name, key)
        return _Span(self, self._harness_ids[name, key])

    # -- wrapping ------------------------------------------------------------

    def _wrap_call(
        self,
        fn: Callable,
        name_id: int,
        capture: Callable | None = None,
        sample: int = 1,
        skip: Callable[[tuple], bool] | None = None,
    ) -> Callable:
        tracer, now = self, time.perf_counter
        starts, ends = self.spans.start, self.spans.end
        add_name, add_parent = self.spans.name_id.append, self.spans.parent.append
        add_start, add_end = starts.append, ends.append

        def traced(*args: Any, **kwargs: Any) -> Any:
            outer = tracer.current
            index = tracer.current = len(starts)
            add_name(name_id)
            add_parent(outer)
            add_end(0.0)
            add_start(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                tracer.current = outer
            if capture is not None:
                capture(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        if skip is not None:
            def guarded(*args: Any, **kwargs: Any) -> Any:
                if skip(args):
                    return fn(*args, **kwargs)
                return traced(*args, **kwargs)

            guarded.__wrapped__ = fn  # type: ignore[attr-defined]
            return guarded
        if sample == 1:
            return traced

        self.weights[name_id] = sample
        count = self.calls[name_id] = [0]

        def counted(*args: Any, **kwargs: Any) -> Any:
            count[0] = n = count[0] + 1
            if n % sample:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def _wrap_context(self, fn: Callable, name: str, key: str) -> Callable:
        enter_id = self.name_id(f"{name}.enter", key)
        exit_id = self.name_id(f"{name}.exit", key)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> _SpannedContext:
            return _SpannedContext(tracer, fn(*args, **kwargs), enter_id, exit_id)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        key: str,
        *,
        capture: Callable | None = None,
        context: bool = False,
        sample: int = 1,
        skip: Callable[[tuple], bool] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (method) or a module (function). A module
        function is replaced in every loaded ``repro`` module that binds
        the same object, because ``from x import f`` copies the binding.
        ``context=True`` is for functions that return a context manager;
        ``capture(result, args)`` sees each call's outcome; ``sample=n``
        counts every call and spans every n-th;
        ``skip(args)`` true means this call does no work worth a span.
        """
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        if context:
            wrapper = self._wrap_context(original, name, key)
        else:
            wrapper = self._wrap_call(
                original, self.name_id(name, key), capture, sample, skip
            )
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == "repro" or n.startswith("repro."))
                and m.__dict__.get(attr) is original
            ]
        for holder in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back (last patched first)."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path, **header: Any) -> None:
        """Dump the spans (times relative to the first span's start)."""
        s = self.spans
        t0 = s.start[0] if len(s) else 0.0
        doc = {
            **header,
            "names": self.names,
            "keys": self.keys,
            "weights": self.weights,
            "spans": {
                "name_id": s.name_id,
                "start_s": [round(t - t0, 7) for t in s.start],
                "end_s": [round(t - t0, 7) for t in s.end],
                "parent": s.parent,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: Spans, weights: list[int] | None = None) -> list[float]:
    """Duration of each span minus the part its direct children cover.

    A child is recorded after its parent, so one backward pass has added
    every child's duration to its parent before the parent is reached.
    ``weights[name_id]`` scales a sampled span: its self time counts
    ``weight`` times and covers as much of its parent, while its children
    (spanned on every call, whoever their parent is) cover their own.
    """
    covered = [0.0] * len(spans)
    out = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        weight = weights[spans.name_id[i]] if weights else 1
        out[i] = (spans.duration(i) - covered[i]) * weight
        if spans.parent[i] >= 0:
            covered[spans.parent[i]] += out[i] + covered[i]
    return out


def _ancestors(spans: Spans, index: int) -> Iterator[int]:
    index = spans.parent[index]
    while index >= 0:
        yield index
        index = spans.parent[index]


def fold(
    spans: Spans,
    keys: list[str],
    weights: list[int] | None = None,
    calls: dict[int, list[int]] | None = None,
) -> dict[str, tuple[float, int]]:
    """Sum self time and calls per metric key (``calls`` holds the exact
    count of each sampled name, whose spans are not counted).

    A kernel body whose nearest ancestor outside the ``runtime`` layer is
    a halo span is a pack/unpack body: it counts under ``mpi.pack_body``
    so ``mas.kernel_body`` stays the physics kernels only.
    """
    selfs = self_times(spans, weights)
    calls = calls or {}
    out: dict[str, list] = {keys[n]: [0.0, 0] for n in calls}
    for n, count in calls.items():
        out[keys[n]][1] += count[0]
    for i, name_id in enumerate(spans.name_id):
        key = keys[name_id]
        if key == _BODY_KEY:
            for a in _ancestors(spans, i):
                akey = keys[spans.name_id[a]]
                if not akey.startswith("runtime."):
                    if akey == _HALO_KEY:
                        key = PACK_BODY_KEY
                    break
        acc = out.setdefault(key, [0.0, 0])
        acc[0] += selfs[i]
        if name_id not in calls:
            acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
