"""The profiler (``repro.obs.events.Profiler``) and Fig. 4's timeline renderer."""

import pytest

from repro.experiments.fig4 import render_timeline
from repro.obs.events import Profiler
from repro.runtime.clock import SimClock, TimeCategory


@pytest.fixture
def recorded():
    p = Profiler()
    c = SimClock()
    p.attach(c, "gpu0")
    c.advance(1.0, TimeCategory.COMPUTE, "visc_matvec")
    c.advance(0.5, TimeCategory.MPI_TRANSFER, "msg_2")
    c.advance(0.2, TimeCategory.UM_FAULT, "fault_in(buf)")
    c.advance(0.0, TimeCategory.COMPUTE, "empty")  # zero-length dropped
    return p, c


class TestCollection:
    def test_events_recorded_in_order(self, recorded):
        p, _ = recorded
        _, starts, _, _, labels = p.columns
        assert labels == ["visc_matvec", "msg_2", "fault_in(buf)"]
        assert starts[0] == 0.0
        assert starts[1] == pytest.approx(1.0)

    def test_zero_duration_dropped(self, recorded):
        p, _ = recorded
        assert len(p) == 3
        assert all(d > 0 for d in p.columns[2])

    def test_record_interns_in_first_appearance_order(self, recorded):
        p, _ = recorded
        record = p.record()
        assert record.lanes == ("gpu0",)
        assert record.categories == ("compute", "mpi_transfer", "um_fault")
        assert record.category.tolist() == [0, 1, 2]
        assert record.duration.tolist() == [1.0, 0.5, 0.2]

    def test_multiple_lanes(self):
        p = Profiler()
        c0, c1 = SimClock(), SimClock()
        p.attach(c0, "gpu0")
        p.attach(c1, "gpu1")
        c0.advance(1.0, TimeCategory.COMPUTE, "a")
        c1.advance(1.0, TimeCategory.COMPUTE, "b")
        assert set(p.columns[0]) == {"gpu0", "gpu1"}


class TestRendering:
    def test_transfers_on_mem_lane(self, recorded):
        p, c = recorded
        out = render_timeline(p.record(), title="t", t0=0.0, t1=c.now)
        assert "gpu0 |" in out
        assert "gpu0:mem |" in out
        assert "K" in out

    def test_p2p_vs_um_glyphs(self):
        p = Profiler()
        c = SimClock()
        p.attach(c, "g")
        c.advance(1.0, TimeCategory.MPI_TRANSFER, "msg_0")
        c.advance(1.0, TimeCategory.MPI_TRANSFER, "fault_out(buf)")
        c.advance(1.0, TimeCategory.MPI_TRANSFER, "um_mpi_sync")
        out = render_timeline(p.record(), title="", t0=0.0, t1=c.now)
        mem_line = [l for l in out.splitlines() if ":mem" in l][0]
        assert "P" in mem_line and "v" in mem_line and "^" in mem_line


class TestLifecycle:
    def test_attach_idempotent_per_lane(self):
        p = Profiler()
        c = SimClock()
        p.attach(c, "gpu0")
        p.attach(c, "gpu0")  # repeated attach must not double-record
        c.advance(1.0, TimeCategory.COMPUTE, "k")
        assert len(p) == 1
        assert p.attached_count == 1
        assert c.observer_count == 1

    def test_detach_stops_recording(self):
        p = Profiler()
        c = SimClock()
        p.attach(c, "gpu0")
        c.advance(1.0, TimeCategory.COMPUTE, "before")
        assert p.detach(c) == 1
        c.advance(1.0, TimeCategory.COMPUTE, "after")
        assert p.columns[4] == ["before"]
        assert c.observer_count == 0

    def test_detach_all(self):
        p = Profiler()
        c0, c1 = SimClock(), SimClock()
        p.attach(c0, "a")
        p.attach(c1, "b")
        assert p.detach() == 2
        assert p.attached_count == 0

    def test_detach_unattached_clock_is_noop(self):
        p = Profiler()
        assert p.detach(SimClock()) == 0

    def test_clear_keeps_subscriptions(self):
        p = Profiler()
        c = SimClock()
        p.attach(c, "gpu0")
        c.advance(1.0, TimeCategory.COMPUTE, "a")
        p.clear()
        assert len(p) == 0 and p.columns == ([], [], [], [], [])
        c.advance(1.0, TimeCategory.COMPUTE, "b")
        assert p.columns[4] == ["b"]

    def test_unsubscribe_unknown_observer_is_noop(self):
        c = SimClock()
        c.unsubscribe(lambda *a: None)
        assert c.observer_count == 0
