"""Trace merging under overlapped halo exchange.

The overlapped engine runs each exchange on detached communication
clocks that profile under ``<lane>:comm``.  Two merge invariants make
the critical-path observatory trustworthy:

* every overlapped ``halo_exchange`` (begin) span has exactly one
  ``halo_finish`` partner with the same ``xid``, both nested inside an
  enclosing span, with the finish interval not before the begin;
* ``halo_overlap_seconds`` (the mean-per-rank hidden seconds counter)
  equals the *measured* span overlap: the intersection of comm-lane
  trace events with the same rank's concurrently-busy main-lane events,
  excluding the ``halo_wait_*`` settlement charged by finish itself.
"""

from contextlib import contextmanager

import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.obs.critpath import COMM_SUFFIX
from repro.obs.telemetry import Telemetry, activate, deactivate

SHAPE = (8, 6, 8)


@contextmanager
def _session():
    tel = Telemetry(None)
    activate(tel)
    try:
        yield tel
    finally:
        deactivate(tel)


def _run(n):
    with _session() as tel:
        model = MasModel(
            ModelConfig(shape=SHAPE, num_ranks=n, pcg_iters=2, sts_stages=2,
                        halo_overlap=True),
            runtime_config_for(CodeVersion.A),
        )
        model.step()
    return tel


def _metric_sum(metrics: dict, name: str) -> float:
    fam = metrics.get(name, {})
    return sum(s["value"] for s in fam.get("samples", []) if "value" in s)


def _overlap_pairs(tel):
    spans = [s.to_dict() for s in tel.tracer.spans]
    begins = {
        s["attrs"]["xid"]: s
        for s in spans
        if s["name"] == "halo_exchange" and s["attrs"].get("overlap")
    }
    finishes = {
        s["attrs"]["xid"]: s for s in spans if s["name"] == "halo_finish"
    }
    return spans, begins, finishes


@pytest.mark.parametrize("n", [1, 2, 4])
class TestSpanPairing:
    def test_every_begin_has_one_finish(self, n):
        _, begins, finishes = _overlap_pairs(_run(n))
        assert begins, "overlapped run produced no halo_exchange spans"
        assert set(begins) == set(finishes)

    def test_pairs_nest_inside_enclosing_spans(self, n):
        spans, begins, finishes = _overlap_pairs(_run(n))
        by_id = {s["span_id"]: s for s in spans}
        for xid, b in begins.items():
            f = finishes[xid]
            # both nested under a live parent span (step/* or setup/*)
            assert b["parent_id"] in by_id
            assert f["parent_id"] in by_id
            # the finish interval never precedes its begin
            assert f["start"] >= b["start"]
            assert f["end"] >= b["end"]
            # begin carries the field list; finish echoes it
            assert f["attrs"]["field"] == b["attrs"]["field"]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_overlap_counter_matches_measured_span_overlap(n):
    tel = _run(n)
    lanes: dict[str, list] = {}
    for lane, start, duration, _, label in zip(*tel.profiler.columns):
        lanes.setdefault(lane, []).append((start, start + duration, label))

    measured = 0.0
    comm_lanes = [ln for ln in lanes if ln.endswith(COMM_SUFFIX)]
    if n > 1:
        assert comm_lanes, "overlapped run produced no :comm lanes"
    for ln in comm_lanes:
        main = lanes.get(ln[: -len(COMM_SUFFIX)], [])
        busy = [(m0, m1) for m0, m1, label in main if not label.startswith("halo_wait")]
        for c0, c1, _ in lanes[ln]:
            for m0, m1 in busy:
                lo, hi = max(c0, m0), min(c1, m1)
                if hi > lo:
                    measured += hi - lo
    measured /= n  # the counter accumulates the mean over ranks

    counted = _metric_sum(tel.metrics.to_json(), "halo_overlap_seconds")
    if n == 1:
        # single rank: all faces are local copies; nothing to hide
        assert counted == pytest.approx(measured, abs=1e-12)
    else:
        assert counted > 0
        assert counted == pytest.approx(measured, rel=1e-9, abs=1e-12)
