"""Span tracer: nesting, context propagation, JSONL schema, the disabled span."""

import json

import pytest

from repro.obs.telemetry import NULL
from repro.obs.tracing import Span, Tracer


class FakeClock:
    """Deterministic time source the tests can step manually."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestNesting:
    def test_parent_child_ids_and_depth(self):
        clock = FakeClock()
        tr = Tracer(time_fn=clock)
        with tr.span("step") as outer:
            clock.now = 1.0
            with tr.span("step/viscosity") as inner:
                clock.now = 2.0
            clock.now = 3.0
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert outer.start == 0.0 and outer.end == 3.0
        assert inner.start == 1.0 and inner.end == 2.0
        assert [s for s in tr.spans if s.parent_id == outer.span_id] == [inner]

    def test_current_tracks_innermost(self):
        tr = Tracer()
        assert tr.current() is None
        with tr.span("a") as a:
            assert tr.current() is a
            with tr.span("b") as b:
                assert tr.current() is b
            assert tr.current() is a
        assert tr.current() is None

    def test_siblings_share_parent(self):
        tr = Tracer()
        with tr.span("step") as step:
            with tr.span("x"):
                pass
            with tr.span("y"):
                pass
        kids = [s for s in tr.spans if s.parent_id == step.span_id]
        assert [s.name for s in kids] == ["x", "y"]

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        assert tr.current() is None
        assert all(s.end is not None for s in tr.spans)

    def test_roots(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("a/b"):
                pass
        with tr.span("c"):
            pass
        assert [s.name for s in tr.spans if s.parent_id is None] == ["a", "c"]


class TestSchema:
    def test_jsonl_records(self):
        clock = FakeClock()
        tr = Tracer(time_fn=clock)
        with tr.span("step", index=3):
            clock.now = 0.5
        lines = tr.to_jsonl().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["name"] == "step"
        assert rec["attrs"] == {"index": 3}
        assert rec["parent_id"] is None
        assert rec["duration"] == pytest.approx(0.5)
        assert rec["host_seconds"] >= 0.0

    def test_numpy_attrs_serialize(self):
        np = pytest.importorskip("numpy")
        tr = Tracer()
        with tr.span("k", value=np.float64(1.5), n=np.int64(4)):
            pass
        rec = json.loads(tr.to_jsonl())
        assert rec["attrs"] == {"value": 1.5, "n": 4}

    def test_by_name_groups_completed(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("halo_exchange"):
                pass
        open_cm = tr.span("still_open")  # noqa: F841 -- intentionally unclosed
        assert [s.name for s in tr.completed()] == ["halo_exchange"] * 3

    def test_duration_zero_while_open(self):
        tr = Tracer()
        tr.span("open")
        assert tr.spans[0].duration == 0.0


class TestNullTracer:
    def test_noop_span(self):
        with NULL.tracer.span("anything", a=1) as s:
            assert s is None

    def test_shared_context_manager(self):
        # The null path must not allocate per call.
        assert NULL.tracer.span("a") is NULL.tracer.span("b")
