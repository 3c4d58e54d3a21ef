"""Simulated clock and time categories."""

import math

import pytest

from repro.runtime.clock import MPI_CATEGORIES, SimClock, TimeCategory


class TestAdvance:
    def test_accumulates(self):
        c = SimClock()
        c.advance(1.0, TimeCategory.COMPUTE)
        c.advance(2.0, TimeCategory.MPI_PACK)
        assert c.now == pytest.approx(3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0, TimeCategory.COMPUTE)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_rejected_and_nothing_moves(self, dt):
        """``NaN < 0`` is false: a NaN once poisoned ``now`` and every total
        after it without a word."""
        c = SimClock()
        c.advance(1.0, TimeCategory.COMPUTE)
        with pytest.raises(ValueError, match="finite non-negative"):
            c.advance(dt, TimeCategory.COMPUTE)
        assert c.now == 1.0 and c.by_category == {TimeCategory.COMPUTE: 1.0}

    def test_category_totals(self):
        c = SimClock()
        c.advance(1.0, TimeCategory.COMPUTE)
        c.advance(0.5, TimeCategory.COMPUTE)
        assert c.by_category[TimeCategory.COMPUTE] == pytest.approx(1.5)


class TestWaitUntil:
    def test_advances_to_target(self):
        c = SimClock()
        c.wait_until(5.0)
        assert c.now == 5.0
        assert c.by_category[TimeCategory.MPI_WAIT] == 5.0

    def test_noop_when_past(self):
        c = SimClock()
        c.advance(10.0, TimeCategory.COMPUTE)
        c.wait_until(5.0)
        assert c.now == 10.0

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_a_non_finite_target_is_refused(self, t):
        c = SimClock()
        c.advance(10.0, TimeCategory.COMPUTE)
        with pytest.raises(ValueError):
            c.wait_until(t)
        assert c.now == 10.0 and TimeCategory.MPI_WAIT not in c.by_category


class TestMpiSplit:
    def test_mpi_vs_non_mpi(self):
        c = SimClock()
        c.advance(3.0, TimeCategory.COMPUTE)
        c.advance(1.0, TimeCategory.MPI_PACK)
        c.advance(1.0, TimeCategory.MPI_TRANSFER)
        c.advance(1.0, TimeCategory.MPI_WAIT)
        c.advance(0.5, TimeCategory.UM_FAULT)
        assert c.mpi_time == pytest.approx(3.0)
        assert c.now - c.mpi_time == pytest.approx(3.5)  # Fig. 3's non-MPI bar

    def test_mpi_categories_frozen(self):
        assert TimeCategory.MPI_PACK in MPI_CATEGORIES
        assert TimeCategory.COMPUTE not in MPI_CATEGORIES

    def test_total_with_subset(self):
        c = SimClock()
        c.advance(2.0, TimeCategory.H2D)
        assert c.total(frozenset({TimeCategory.H2D})) == 2.0
        assert c.total() == 2.0


class TestObservers:
    def test_observer_sees_events(self):
        c = SimClock()
        seen = []
        c.subscribe(lambda start, dt, cat, label: seen.append((start, dt, cat, label)))
        c.advance(1.0, TimeCategory.COMPUTE, "k1")
        c.advance(0.5, TimeCategory.LAUNCH, "gap")
        assert seen[0] == (0.0, 1.0, TimeCategory.COMPUTE, "k1")
        assert seen[1][0] == pytest.approx(1.0)

    def test_snapshot_keys_are_strings(self):
        c = SimClock()
        c.advance(1.0, TimeCategory.COMPUTE)
        assert c.snapshot() == {"compute": 1.0}
