"""A recorded step plan, replayed, is the live run to the last bit.

The live run stays the definition: every comparison here is against the
golden files the live runs are held to (``pricing_golden.json``, recorded
before launch prices were memoised; ``fig_parent.json``, written by
``fig_fixture.py`` from the commit before plans existed), or against a live
run made beside the replay.  ``plan_golden.json`` is the plan as an
artifact: re-record it, after looking at what the failing test printed, with::

    PYTHONPATH=src:. python tests/mas/test_plan.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import CodeVersion, GPU_VERSIONS, runtime_config_for
from repro.experiments.sensitivity import PERTURBED_CONSTANTS, _perturb
from repro.mas.model import MasModel, ModelConfig
from repro.mas.plan import PlanRecorder, StepPlan, replay, run_planned
from repro.mas.runtime_side import RuntimeSide
from repro.obs.telemetry import session
from repro.perf.calibration import Calibration, build_model, model_settings
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec
from tests.integration.test_migration_gate import CASES, GOLDEN, STEPS, configs, record_runtime
from tests.mas.fig_fixture import FIXTURE, fig2_pairs, fig3_pairs, telemetry_digest

PLAN_GOLDEN = FIXTURE.with_name("plan_golden.json")
SMALL = dict(shape=(8, 6, 8), pcg_iters=2, sts_stages=2, extra_model_arrays=2)


def record_plan(config, rt_config, steps, **hardware):
    """A live run through a recorder: (the advanced model, its plan)."""
    recorder = PlanRecorder(RuntimeSide(config, rt_config, **hardware))
    model = MasModel(config, rt_config, runtime=recorder)
    model.run(steps)
    return model, recorder.finish()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


@pytest.fixture(scope="module")
def recorded() -> dict:
    """case -> (the recorded live run's priced record, its plan)."""
    cache: dict = {}

    def get(case: str):
        if case not in cache:
            model, plan = record_plan(*configs(case), STEPS)
            cache[case] = (record_runtime(model), plan)
        return cache[case]

    return get


def priced(entry: dict) -> dict:
    """A golden entry minus what only the physics knows."""
    return {k: v for k, v in entry.items() if k not in ("state_sha256", "members")}


# -- (a), (b): replay == live == the migration gate's golden -------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorded_and_replayed_equal_the_recorded_parent(case, golden, recorded):
    live, plan = recorded(case)
    assert live == priced(golden[case]), "recording moved the live run"
    side = RuntimeSide(*configs(case))
    timings = replay(plan, side)
    assert len(timings) == STEPS
    got = record_runtime(side)
    for r, (g, w) in enumerate(zip(got["ranks"], live["ranks"])):
        assert g == w, f"rank {r}"
    assert got == live


@pytest.mark.parametrize("ranks", [1, 8])
@pytest.mark.parametrize("version", ["CPU", "AD", "ADU", "AD2XU", "D2XU", "D2XAD"])
def test_code_1s_plan_prices_every_other_version(version, ranks, golden, recorded):
    """One physics run per rank count: Code 1's stream, replayed under each
    other version's runtime (the CPU's too: it emits what Code 1 emits),
    is that version's golden entry."""
    _, plan = recorded(f"A-r{ranks}")
    side = RuntimeSide(*configs(f"{version}-r{ranks}"))
    replay(plan, side)
    assert record_runtime(side) == priced(golden[f"{version}-r{ranks}"])


def test_a_stream_that_follows_the_state_replays_step_by_step():
    """A residual tolerance lets the iteration count, and so the stream,
    differ from step to step."""
    cfg = ModelConfig(num_ranks=2, **{**SMALL, "pcg_iters": 30, "pcg_tol": 10 ** -4.5})
    rt_cfg = runtime_config_for(CodeVersion.AD)
    _, plan = record_plan(cfg, rt_cfg, 4)
    assert len(plan.steps) == 4
    assert replay(plan, RuntimeSide(cfg, rt_cfg)) == MasModel(cfg, rt_cfg).run(4)
    side = RuntimeSide(cfg, runtime_config_for(CodeVersion.D2XU))
    d2xu = MasModel(cfg, runtime_config_for(CodeVersion.D2XU))
    assert replay(plan, side, 2) == d2xu.run(2)
    assert record_runtime(side) == record_runtime(d2xu)


def drive_steps(cfg, launches_per_step):
    """Steps of so many launches each, issued straight at a recorder."""
    recorder = PlanRecorder(RuntimeSide(cfg, runtime_config_for(CodeVersion.A)))
    recorder.register_arrays()
    timings = []
    for step, n in enumerate(launches_per_step):
        recorder.begin_step()
        for _ in range(n):
            recorder.ranks[0].loop(KernelSpec("touch", writes=("rho",)))
        timings.append(recorder.end_step(step, 0.1, 0.1 * (step + 1)))
    return recorder.finish(), timings


def test_a_step_equal_to_the_previous_one_is_stored_once():
    cfg = ModelConfig(num_ranks=1, pcg_tol=1e-6, **SMALL)
    plan, live = drive_steps(cfg, (1, 2, 2, 1))
    assert [s[0] for s in plan.steps] == [0, 1, 1, 2] and len(plan.streams) == 3
    assert replay(plan, RuntimeSide(cfg, runtime_config_for(CodeVersion.A))) == live


def test_fixed_iteration_counts_mean_one_stream():
    """With ``pcg_tol == 0`` and fixed stages nothing a step emits depends
    on the state: a step that differs from the first is a bug, named."""
    with pytest.raises(RuntimeError, match="step 1 emitted a different stream"):
        drive_steps(ModelConfig(num_ranks=1, **SMALL), (1, 2))


# -- (c): any constant vector ------------------------------------------------------

FAST = Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)


@settings(max_examples=12, deadline=None)
@given(
    version=st.sampled_from(GPU_VERSIONS),
    factors=st.dictionaries(
        st.sampled_from([name for name, _ in PERTURBED_CONSTANTS]),
        st.sampled_from([0.5, 2.0]),
        max_size=3,
    ),
    fusion=st.booleans(),
)
def test_replay_under_a_perturbed_calibration_equals_live_under_it(version, factors, fusion):
    cal = replace(FAST, cross_region_fusion=fusion)
    for name, factor in factors.items():
        cal = _perturb(cal, name, factor)
    plans = _FAST_PLANS
    if not plans:  # recorded once, under Code 1 and the unperturbed constants
        _run(plans, CodeVersion.A, FAST)
    replayed = _run(plans, version, cal)
    assert len(plans) == 1
    assert replayed == build_model(version, 2, calibration=cal, extra_model_arrays=3).run(2)


#: The property's plan book: one entry, whatever hypothesis draws.
_FAST_PLANS: dict = {}


def _run(plans, version, cal):
    config, rt_config, hardware = model_settings(
        version, 2, calibration=cal, extra_model_arrays=3
    )
    return run_planned(plans, 2, config, rt_config, **hardware)


# -- a replay charges lowered launches, and falls back where it must -----------------


@pytest.fixture(scope="module")
def code1_plan() -> StepPlan:
    cfg = ModelConfig(num_ranks=2, **SMALL)
    return record_plan(cfg, runtime_config_for(CodeVersion.A), 2)[1]


@pytest.mark.parametrize("version", ["A", "ADU", "D2XAD"])
def test_a_plan_replays_onto_a_side_with_cross_region_fusion(code1_plan, version):
    """The window holds plain loops and halo kernels between synchronization
    points: those launches are not charged at once, and the replay must
    buffer them as the live run does."""
    rt_cfg = replace(runtime_config_for(CodeVersion[version]), cross_region_fusion=True)
    side = RuntimeSide(code1_plan.config, rt_cfg)
    replay(code1_plan, side)
    live = MasModel(code1_plan.config, rt_cfg)
    live.run(2)
    assert record_runtime(side) == record_runtime(live)
    if version == "A":
        assert sum(rt.stats.fused_away for rt in side.ranks) > 0


class _Watcher:
    """A shadow checker that notes every launch it is shown."""

    def __init__(self) -> None:
        self.seen: list[str] = []

    def on_launch(self, spec, env, *, async_launch, queue=None) -> None:
        self.seen.append(spec.name)

    def run_body(self, spec, env):
        return spec.run_body()

    def sync(self, queue=None) -> None:
        pass


def _watch(run) -> list:
    """Attach a watcher to every rank of ``run``, whose halo plans are
    built; per rank, (the watcher, kernels launched so far)."""
    assert run.halo.plans_built > 0
    watched = []
    for rt in run.ranks:
        watched.append((_Watcher(), rt.stats.kernels))
        rt.attach_shadow(watched[-1][0])
    return watched


@pytest.mark.parametrize("version", ["A", "D2XU"])
def test_a_shadow_attached_after_the_halo_plans_sees_every_launch(code1_plan, version):
    """The set-up's exchange builds the halo plans, with their launches
    lowered; a checker attached afterwards must still be shown every pack
    and unpack, in the live run's order."""
    rt_cfg = runtime_config_for(CodeVersion[version])
    live = MasModel(code1_plan.config, rt_cfg)  # set-up done
    watched = {"live": _watch(live)}
    live.run(2)

    side = RuntimeSide(code1_plan.config, rt_cfg)
    begin_step = side.begin_step

    def watch_then_begin_step() -> None:  # after the set-up stream
        if "replay" not in watched:
            watched["replay"] = _watch(side)
        begin_step()

    side.begin_step = watch_then_begin_step
    replay(code1_plan, side)

    for run, key in ((live, "live"), (side, "replay")):
        for (watcher, kernels0), rt in zip(watched[key], run.ranks):
            assert len(watcher.seen) == rt.stats.kernels - kernels0
            assert any(n.startswith("halo_pack") for n in watcher.seen)
            assert any(n.startswith("halo_unpack") for n in watcher.seen)
    assert record_runtime(side) == record_runtime(live)
    assert [w.seen for w, _ in watched["replay"]] == [w.seen for w, _ in watched["live"]]


def _swap_sizes(rt, a: str, b: str) -> None:
    """Re-register two arrays with each other's sizes: the epoch moves, the
    working set does not, and a kernel reading ``a`` costs another price."""
    na, nb = rt.env.nominal_bytes(a), rt.env.nominal_bytes(b)
    rt.env.unregister(a)
    rt.env.unregister(b)
    rt.register_array(a, nb)
    rt.register_array(b, na)


@pytest.mark.parametrize("version", ["A", "D2XU", "CPU"])
def test_a_launch_is_lowered_again_after_the_epoch_moves(version):
    """One spec launched, the epoch moved under an unchanged working set,
    the spec launched again: the replay's table must not hand out the
    price it held."""
    from repro.mas.plan import _Player

    cfg = ModelConfig(num_ranks=1, **SMALL)
    rt_cfg = runtime_config_for(CodeVersion[version])
    spec = KernelSpec("touch", reads=("rho",), writes=("rho",))
    recorder = PlanRecorder(RuntimeSide(cfg, rt_cfg))
    recorder.register_arrays()
    recorder.begin_step()
    recorder.ranks[0].loop(spec)
    recorder.end_step(0, 0.1, 0.1)
    plan = recorder.finish()

    replayed, live = RuntimeSide(cfg, rt_cfg), RuntimeSide(cfg, rt_cfg)
    player = _Player(plan, replayed)
    deltas = []
    for side, launch in ((replayed, lambda: player.play(plan.streams[0])),
                         (live, lambda: live.ranks[0].loop(spec))):
        side.register_arrays()
        rt = side.ranks[0]
        for swap in (False, True, False):
            if swap:
                _swap_sizes(rt, "rho", "br")
            t0 = rt.clock.now
            launch()
            launch()
            deltas.append(rt.clock.now - t0)
    assert record_runtime(replayed) == record_runtime(live)
    assert deltas[0] not in deltas[1:3] and deltas[:3] == deltas[3:]
    assert replayed.ranks[0].working_set_bytes == live.ranks[0].working_set_bytes


# -- (d), (e): the sweeps, and their telemetry --------------------------------------


def test_fig2_and_fig3_reproduce_the_parents_pairs_and_telemetry(tmp_path):
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.fig3 import run_fig3

    want = json.loads(FIXTURE.read_text())
    with session(tmp_path, command="fig2"):
        fig2 = run_fig2()
    assert fig2_pairs(fig2) == want["fig2"]
    assert fig3_pairs(run_fig3()) == want["fig3"]
    # replays bind under the same prefixes in the same order, and what their
    # clocks, spans and step records say is what the live models said
    got = telemetry_digest(tmp_path)
    for key, value in want["fig2_telemetry"].items():
        assert got[key] == value, key


# -- fail soft --------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_plan() -> StepPlan:
    cfg = ModelConfig(num_ranks=2, **SMALL)
    return record_plan(cfg, runtime_config_for(CodeVersion.A), 2)[1]


class TestReplayRefuses:
    @pytest.mark.parametrize("what,fields", [
        ("num_ranks", dict(num_ranks=4)),
        ("shape", dict(shape=(8, 6, 12))),
        ("nominal_shape", dict(nominal_shape=(150, 300, 400))),
        ("ensemble_size", dict(ensemble_size=2)),
        ("halo overlap", dict(halo_overlap=True)),
        ("pipelined reductions", dict(pcg_variant="pipelined")),
        ("another model configuration", dict(pcg_iters=3)),
    ])
    def test_a_side_the_plan_was_not_recorded_for(self, small_plan, what, fields):
        cfg = replace(small_plan.config, **fields)
        side = RuntimeSide(cfg, runtime_config_for(CodeVersion.A))
        with pytest.raises(ValueError, match=what) as err:
            replay(small_plan, side)
        assert "\n" not in str(err.value)
        self.untouched(side)

    def test_overlap_the_target_cannot_do_is_the_sync_stream(self, small_plan):
        """The key holds the *effective* facts: Code 5 has no async queues,
        so its overlap request degrades to the stream recorded without."""
        cfg = replace(small_plan.config, halo_overlap=True, pcg_variant="pipelined")
        with pytest.raises(ValueError, match="another model configuration"):
            replay(small_plan, RuntimeSide(cfg, runtime_config_for(CodeVersion.D2XU)))

    def test_more_steps_than_recorded_or_a_used_side(self, small_plan):
        rt_cfg = runtime_config_for(CodeVersion.A)
        side = RuntimeSide(small_plan.config, rt_cfg)
        with pytest.raises(ValueError, match="holds 2 steps"):
            replay(small_plan, side, 3)
        self.untouched(side)
        replay(small_plan, side)
        with pytest.raises(ValueError, match="fresh"):
            replay(small_plan, side)

    @staticmethod
    def untouched(side: RuntimeSide) -> None:
        assert all(rt.clock.now == 0.0 and not rt.env.names() for rt in side.ranks)
        assert side.halo.messages == 0

    @pytest.mark.parametrize("damage,why", [
        (lambda s: [e for e in s if e[0] != "exchange_begin"], "with no begin"),
        (lambda s: [e for e in s if e[0] != "region_close"], "left open"),
        (lambda s: [e for e in s if e[0] != "span_close"], "left open"),
        (lambda s: s[:1] + [s[1][:2]] + s[2:], "malformed"),
        (lambda s: s + [("loop", 7, 0, None)], "rank 7"),
        (lambda s: s + [("loop", 0, 10_000, None)], "unknown spec"),
    ])
    def test_a_damaged_stream(self, small_plan, damage, why):
        side = RuntimeSide(small_plan.config, runtime_config_for(CodeVersion.A))
        with pytest.raises(ValueError, match=why) as err:
            streams = (tuple(damage(list(small_plan.streams[0]))),)
            replay(replace(small_plan, streams=streams), side)
        assert str(err.value).startswith("damaged plan") and "\n" not in str(err.value)
        self.untouched(side)

    def test_an_event_naming_an_unregistered_array(self, small_plan):
        specs = (replace(small_plan.specs[0], reads=("no_such_array",)), *small_plan.specs[1:])
        side = RuntimeSide(small_plan.config, runtime_config_for(CodeVersion.A))
        with pytest.raises(ValueError, match="unregistered array 'no_such_array'"):
            replay(replace(small_plan, specs=specs), side)
        self.untouched(side)

    def test_a_step_left_open_has_no_plan(self):
        cfg = ModelConfig(num_ranks=1, **SMALL)
        recorder = PlanRecorder(RuntimeSide(cfg, runtime_config_for(CodeVersion.A)))
        MasModel(cfg, runtime_config_for(CodeVersion.A), runtime=recorder)
        recorder.begin_step()
        with pytest.raises(ValueError, match="still open"):
            recorder.finish()


class TestPlanAtRest:
    def test_holds_pieces_never_the_model(self, small_plan):
        """No array, closure, runtime or model is reachable from a plan
        (``gc`` off: what ``get_referents`` reports is what keeps alive)."""
        opaque = (type, types.ModuleType)
        barred = (np.ndarray, types.FunctionType, types.MethodType, RankRuntime,
                  RuntimeSide, MasModel)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            seen, stack = set(), [small_plan]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, opaque):
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, barred), type(obj)
                stack.extend(gc.get_referents(obj))
        finally:
            if was_enabled:
                gc.enable()
        assert all(spec.body is None for spec in small_plan.specs)

    def test_pickles(self, small_plan):
        again = pickle.loads(pickle.dumps(small_plan))
        assert again == small_plan and again.dumps() == small_plan.dumps()
        assert len(pickle.dumps(small_plan)) < 100_000

    def test_recorder_player_and_sides_are_freed_by_reference_counting(self):
        """Neither the recording wrappers nor a replay's tables close a
        cycle: dropped, they go at once (the benchmark's ``peak_rss_mb``
        is where a cycle would show)."""
        cfg = ModelConfig(num_ranks=2, **SMALL)
        rt_cfg = runtime_config_for(CodeVersion.A)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            side = RuntimeSide(cfg, rt_cfg)
            recorder = PlanRecorder(side)
            model = MasModel(cfg, rt_cfg, runtime=recorder)
            model.run(1)
            plan = recorder.finish()
            target = RuntimeSide(cfg, rt_cfg)
            replay(plan, target)
            watched = {
                "model": weakref.ref(model),
                "state array": weakref.ref(model.states[0].rho),
                "recorder": weakref.ref(recorder),
                "recorded side": weakref.ref(side),
                "replayed side": weakref.ref(target),
                "rank runtime": weakref.ref(target.ranks[0]),
            }
            del model, recorder, side, target
            alive = [name for name, ref in watched.items() if ref() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert alive == []


def test_the_wrappers_record_every_entry_point():
    """The model emits no ``sync`` or data directive today; the wrappers
    carry them all the same, and a replay prices them."""
    cfg = ModelConfig(num_ranks=1, **SMALL)
    rt_cfg = runtime_config_for(CodeVersion.A)

    def drive(run):
        run.register_arrays()
        rt = run.ranks[0]
        run.begin_step()
        rt.atomic_loop(KernelSpec("touch", reads=("rho",), writes=("temp",)))
        rt.update_host("rho", 0.5)
        rt.update_device("rho")
        rt.host_access("temp")
        rt.sync()
        run.halo.exchange("rho", [np.zeros((10, 8, 10))])
        return run.end_step(0, 0.1, 0.1)

    recorder = PlanRecorder(RuntimeSide(cfg, rt_cfg))
    live = drive(recorder)
    plan = recorder.finish()
    assert [e[0] for e in plan.streams[0]] == [
        "atomic_loop", "update_host", "update_device", "host_access", "sync",
        "exchange_many",
    ]
    assert replay(plan, RuntimeSide(cfg, rt_cfg)) == [live]


# -- the plan as an artifact ---------------------------------------------------------


def paper_plans() -> dict[str, StepPlan]:
    """Code 1's plan per GPU count at the paper calibration: what
    ``run_fig2`` records."""
    from repro.perf.calibration import PAPER_CALIBRATION as cal

    out = {}
    for n in (1, 2, 4, 8):
        plans: dict = {}
        config, rt_config, hardware = model_settings(CodeVersion.A, n)
        run_planned(plans, cal.warmup_steps + cal.bench_steps, config, rt_config, **hardware)
        (out[str(n)],) = plans.values()
    return out


def artifact(plan: StepPlan) -> dict:
    return {
        "events": plan.counts(),
        "sha256": hashlib.sha256(plan.dumps().encode()).hexdigest(),
        # four hex digits a line: enough to name the first line that moved
        "lines": "".join(hashlib.sha256(x.encode()).hexdigest()[:4] for x in plan.lines()),
    }


def test_the_kernel_stream_is_the_recorded_one():
    want = json.loads(PLAN_GOLDEN.read_text())
    for ranks, plan in paper_plans().items():
        got = artifact(plan)
        if got == want[ranks]:
            continue
        lines, old = plan.lines(), want[ranks]["lines"]
        for i, line in enumerate(lines):
            if got["lines"][4 * i:4 * i + 4] != old[4 * i:4 * i + 4]:
                pytest.fail(
                    f"{ranks} ranks: the kernel stream moved; first differing line "
                    f"{i} of {len(lines)} (golden had {len(old) // 4}) is now\n  {line}\n"
                    f"event counts {got['events']}\n    were     {want[ranks]['events']}"
                )
        pytest.fail(f"{ranks} ranks: the stream lost its last "
                    f"{len(old) // 4 - len(lines)} lines")


if __name__ == "__main__":
    PLAN_GOLDEN.write_text(json.dumps(
        {ranks: artifact(plan) for ranks, plan in paper_plans().items()}, indent=1,
    ) + "\n")
    print(f"wrote {PLAN_GOLDEN}")
