"""The tail-percentile rule."""

from bench import stats


def test_no_tail_below_twenty_samples():
    assert stats.tail(list(range(19))) is None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail([float(i) for i in range(20)]) == (50, 9.0)
    pct, value = stats.tail([float(i) for i in range(100)])
    assert (pct, value) == (90, 89.0)
    assert sum(1 for i in range(100) if i > value) == 10
    pct, value = stats.tail([float(i) for i in range(24)])
    assert (pct, value) == (58, 13.0)


def test_spread_is_range_over_median():
    assert stats.spread_frac([1.0, 2.0, 4.0]) == 1.5
