"""Hierarchical span tracing over simulated time.

A :class:`Tracer` records nested :class:`Span`\\ s::

    with tracer.span("step/viscosity/pcg", component="vr"):
        ...

Nesting is tracked with an explicit stack, so every span knows its parent
(``parent_id``) and depth -- that is the context propagation: any code
called inside a ``with tracer.span(...)`` block lands under the caller's
span without plumbing arguments through (the halo exchanger's spans nest
under whichever step phase triggered the exchange).

Spans are stamped with *simulated* seconds by default: ``time_fn`` is
rebound to the active model's rank clocks (max over ranks) when a
:class:`~repro.obs.telemetry.Telemetry` session binds a model, so spans
share a timebase with :class:`~repro.obs.events.Profiler` rows and
merge into one Chrome trace (see :mod:`repro.perf.trace_export`). Host
wall-clock duration is recorded separately per span (``host_seconds``)
for overhead analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.runlog import JsonlWriter, to_jsonl


@dataclass(slots=True)
class Span:
    """One completed (or still-open) traced region."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    depth: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Host wall-clock seconds spent inside the span (not simulated time).
    host_seconds: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated duration (0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSONL record for this span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "attrs": self.attrs,
            "host_seconds": self.host_seconds,
        }


class _SpanContext:
    """Context manager closing one span; reusable across ``with`` blocks."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._span.host_seconds = time.perf_counter() - self._t0
        self._tracer._close(self._span)
        return False


class Tracer(JsonlWriter):
    """Collects hierarchical spans with a pluggable time source. A sink
    receives spans as they close (only a closed span has its duration);
    finalization rewrites the file in start order."""

    def __init__(self, time_fn: Callable[[], float] | None = None) -> None:
        #: Simulated-time source; rebound by Telemetry.bind_model.
        self.time_fn: Callable[[], float] = time_fn or (lambda: 0.0)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a span; close it by exiting the returned context manager."""
        parent = self._stack[-1] if self._stack else None
        s = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            start=self.time_fn(),
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(s)
        self._stack.append(s)
        return _SpanContext(self, s)

    def _close(self, span: Span) -> None:
        span.end = self.time_fn()
        # tolerate exceptions unwinding several frames at once
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self._sink is not None:
            self._queue(span.to_dict())

    def current(self) -> Span | None:
        """Innermost open span (the propagation context), or None."""
        return self._stack[-1] if self._stack else None

    def completed(self) -> list[Span]:
        """Spans that have been closed."""
        return [s for s in self.spans if s.end is not None]

    def to_jsonl(self) -> str:
        """One JSON object per line, in start order."""
        return to_jsonl(s.to_dict() for s in self.spans)
