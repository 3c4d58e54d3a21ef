"""Verdicts of ``python -m bench compare``."""

from bench import compare


def verdict(a, b, **kw):
    return compare.bounded_verdict(a, b, better="lower", bound=0.10, **kw)


def test_thresholds_follow_the_bound_and_the_direction():
    assert verdict(1.0, 1.05) == "unchanged"
    assert verdict(1.0, 1.2) == "regressed"
    assert verdict(1.0, 0.8) == "improved"
    assert compare.bounded_verdict(100.0, 80.0, better="higher", bound=0.1) == "regressed"


def test_wide_overlapping_rounds_are_unresolved_not_unchanged():
    wide_a, wide_b = [0.9, 1.0, 1.3], [1.0, 1.05, 1.4]
    assert verdict(1.0, 1.05, rounds_a=wide_a, rounds_b=wide_b) == "unresolved"
    # every round of B better than every round of A: the spread decides nothing
    assert verdict(1.0, 0.5, rounds_a=wide_a, rounds_b=[0.4, 0.5, 0.6]) == "improved"
    tight_a, tight_b = [0.99, 1.0, 1.01], [1.0, 1.01, 1.02]
    assert verdict(1.0, 1.01, rounds_a=tight_a, rounds_b=tight_b) == "unchanged"


def _run(wall, launches, failed=0):
    e2e = {
        "setup_s": 0.5, "wall_s": wall, "op_ms_p50": wall * 100,
        "work_per_s": 1000 / wall, "peak_rss_mb": 40.0,
    }
    return {"workloads": {"step_dispatch": {
        "end_to_end": {k: {"value": v, "unit": "x"} for k, v in e2e.items()},
        "per_layer": {
            "runtime.launches": {"value": launches, "unit": "count"},
            "runtime.dispatch.self_s": {"value": wall / 2, "unit": "s"},
        },
        "round_wall_s": [wall * 0.99, wall, wall * 1.01],
        "round_setup_s": [0.1, 0.1, 0.1],
        "attempted": 32, "failed": failed,
    }}}


def test_counts_compare_exactly_and_layer_times_carry_no_verdict():
    rows = {r.metric: r for r in compare.compare(_run(1.0, 100), _run(1.5, 101, failed=1))}
    assert rows["wall_s"].verdict == "regressed"
    assert rows["work_per_s"].verdict == "regressed"
    assert rows["peak_rss_mb"].verdict == "unchanged"
    assert rows["fail_share"].verdict == "regressed"
    assert rows["runtime.launches"].verdict == "changed"
    assert rows["runtime.dispatch.self_s"].verdict == "-"
    assert compare.failing(list(rows.values()))
    same = compare.compare(_run(1.0, 100), _run(1.0, 100))
    assert not compare.failing(same)
    assert "0 end-to-end row(s)" in compare.render(same)
