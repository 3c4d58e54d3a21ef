"""Span arithmetic on synthetic trees, and that patches come off again."""

import pytest

from bench import harness, layers
from bench.inputs import make_inputs
from bench.tracer import PACK_BODY_KEY, Spans, Tracer, fold, self_times

#            name_id, start, end, parent
TREE = [
    (0, 0.0, 10.0, -1),   # 0 root
    (1, 1.0, 4.0, 0),     # 1   a
    (2, 1.5, 2.5, 1),     # 2     b
    (2, 3.0, 3.5, 1),     # 3     b
    (1, 5.0, 9.0, 0),     # 4   a
    (3, 6.0, 8.0, 4),     # 5     c
    (2, 6.5, 7.0, 5),     # 6       b
]


def test_self_time_is_duration_minus_direct_children():
    selfs = self_times(Spans.from_rows(TREE))
    assert selfs == pytest.approx([3.0, 1.5, 1.0, 0.5, 2.0, 1.5, 0.5])
    assert sum(selfs) == pytest.approx(10.0)  # tiles the root exactly


def test_sampled_span_scales_its_self_time_and_keeps_the_total():
    # name 2 stands for 4 calls each: its self time counts four times and
    # comes off its callers, so the root's duration is still the total.
    selfs = self_times(Spans.from_rows(TREE), weights=[1, 1, 4, 1])
    assert selfs[2] == pytest.approx(4.0) and selfs[6] == pytest.approx(2.0)
    assert selfs[1] == pytest.approx(3.0 - 4.0 - 2.0)
    assert sum(selfs) == pytest.approx(10.0)


def test_sampled_span_with_children_keeps_the_total():
    # name 3 (span 5) is sampled and has a child of its own
    selfs = self_times(Spans.from_rows(TREE), weights=[1, 1, 1, 5])
    assert selfs[5] == pytest.approx(1.5 * 5)
    assert sum(selfs) == pytest.approx(10.0)


def test_fold_sums_per_key_and_reattributes_halo_bodies():
    keys = ["bench.harness", "mpi.halo", "mas.kernel_body", "runtime.dispatch"]
    folded = fold(Spans.from_rows(TREE), keys)
    # bodies 2 and 3 sit directly under a halo span; body 6 reaches the
    # halo span through a runtime span: all three are pack bodies
    assert folded[PACK_BODY_KEY] == (pytest.approx(2.0), 3)
    assert "mas.kernel_body" not in folded
    assert folded["mpi.halo"] == (pytest.approx(3.5), 2)
    keys[1] = "mas.step"
    folded = fold(Spans.from_rows(TREE), keys)
    assert folded["mas.kernel_body"] == (pytest.approx(2.0), 3)


def test_fold_uses_exact_counts_for_sampled_names():
    keys = ["bench.harness", "mas.step", "machine", "runtime.dispatch"]
    folded = fold(Spans.from_rows(TREE), keys, [1, 1, 4, 1], {2: [13]})
    assert folded["machine"] == (pytest.approx(8.0), 13)


class _Subject:
    def work(self, x, scale=1):
        return x * scale

    def noop(self, flag):
        return flag


def test_patch_records_nesting_and_restore_puts_originals_back():
    original = _Subject.__dict__["work"]
    tracer = Tracer()
    seen = []
    tracer.patch(_Subject, "work", "k.work", capture=lambda r, a: seen.append(r))
    with tracer.span("root", "bench.harness"):
        assert _Subject().work(3, scale=2) == 6
    tracer.restore()
    assert _Subject.__dict__["work"] is original
    assert seen == [6]
    assert tracer.spans.parent == [-1, 0]
    assert tracer.spans.end[1] >= tracer.spans.start[1] > 0


def test_sample_counts_every_call_and_spans_every_nth():
    tracer = Tracer()
    tracer.patch(_Subject, "work", "k.work", sample=5)
    subject = _Subject()
    with tracer.span("root", "bench.harness"):
        for i in range(23):
            subject.work(i)
    tracer.restore()
    (count,) = tracer.calls.values()
    assert count == [23]
    assert len(tracer.spans) == 1 + 23 // 5


def test_skip_leaves_no_span():
    tracer = Tracer()
    tracer.patch(_Subject, "noop", "k.noop", skip=lambda args: args[1])
    subject = _Subject()
    with tracer.span("root", "bench.harness"):
        subject.noop(True)
        subject.noop(False)
    tracer.restore()
    assert len(tracer.spans) == 2


def test_traced_round_restores_every_wrapped_callable(tiny_step_workload):
    from repro.mas import model, pcg
    from repro.runtime.dispatcher import RankRuntime
    from repro.runtime.kernel import KernelSpec

    watched = {
        "RankRuntime.loop": lambda: RankRuntime.__dict__["loop"],
        "RankRuntime.region": lambda: RankRuntime.__dict__["region"],
        "KernelSpec.run_body": lambda: KernelSpec.__dict__["run_body"],
        **{f"model.{n}": (lambda n=n: getattr(model, n)) for n in layers._PCG_SOLVERS},
        **{f"pcg.{n}": (lambda n=n: getattr(pcg, n)) for n in layers._PCG_SOLVERS},
    }
    before = {k: get() for k, get in watched.items()}
    tracer, seen = Tracer(), layers.Captured()
    w = tiny_step_workload
    w.import_program()
    r = harness.run_round(w, make_inputs(0), (tracer, seen))
    assert not r.raised and all(c.ok for c in r.checks)
    assert {k: get() for k, get in watched.items()} == before
    assert KernelSpec.run_body.__qualname__ == "KernelSpec.run_body"  # no wrapper left

    per_layer = layers.metrics(tracer, seen)
    # every second of the round is some wrapped callable's self time
    assert per_layer["bench.unattributed_frac"] < 0.02
    assert per_layer["mas.step.calls"] == w.steps + 1
    assert per_layer["runtime.launches"] == r.facts["launches"]
    assert per_layer["mas.kernel_body.self_s"] > 0
    assert "obs.session.self_s" not in per_layer
