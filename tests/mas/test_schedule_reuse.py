"""Replayed sides start warm.

A fresh runtime side of an already-recorded plan key derives little from
scratch: each engine derives a price's seconds once per set of numbers
(``Engine._seconds``), and each exchange's side-independent halo schedule
is derived once per plan key, by the live side that records the plan
(``HaloExchanger._derive_schedule``); every replay prices the recorded
side's schedule on its own ranks. These tests count that work in one
``run_fig2`` and pin reuse to derivation: a replay that reuses a schedule
equals one that derives its own, to the bit, and a side whose schedule
inputs differ (sensitivity's halo constants, on one shared plan book)
derives its own.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import pytest

from repro.codes import CodeVersion, GPU_VERSIONS
from repro.experiments import fig2, sensitivity
from repro.mas.plan import replay, run_planned
from repro.mas.runtime_side import RuntimeSide
from repro.mpi.halo import HaloExchanger
from repro.perf.calibration import PAPER_CALIBRATION, Calibration, model_settings
from repro.perf.scaling import GPU_COUNTS
from repro.runtime.engine import Engine

#: ``run_fig2`` as the benchmark runs it.
CAL = replace(PAPER_CALIBRATION, bench_steps=1)
STEPS = CAL.warmup_steps + CAL.bench_steps


def counting(monkeypatch, cls, name: str) -> list:
    """Each call of ``cls.name`` from now on, as one entry."""
    calls: list = []
    real = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_run_fig2_derives_each_number_set_and_schedule_once(monkeypatch):
    """Before numbers were shared, one ``run_fig2`` made 9,180 price
    derivations; before schedules were, 96 halo plan builds, 80 of them in
    replays. The engines hold 2,262 distinct number sets, and the four live
    sides derive four exchanges' schedules each."""
    numbers = counting(monkeypatch, Engine, "_seconds")
    schedules = counting(monkeypatch, HaloExchanger, "_derive_schedule")
    priced = counting(monkeypatch, HaloExchanger, "_price")
    fig2.run_fig2(CAL)
    assert len(numbers) <= 2262
    assert len(schedules) <= 16
    assert len(priced) == 96  # every side still prices its own plans


@pytest.fixture(scope="module")
def code1_plans() -> dict:
    """Code 1's plan per GPU count, recorded live as ``run_fig2`` records it."""
    out = {}
    for n in GPU_COUNTS:
        plans: dict = {}
        config, rt_config, hardware = model_settings(CodeVersion.A, n, calibration=CAL)
        run_planned(plans, STEPS, config, rt_config, **hardware)
        (out[n],) = plans.values()
    return out


def side_state(side: RuntimeSide) -> list:
    """Every rank's clock categories in hex and insertion order, launch
    counters, UM counters and residencies; the halo's message counters."""
    state: list = []
    for rt in side.ranks:
        rt.sync()
        um = rt.env.um
        state.append((
            rt.clock.now.hex(),
            [(c.value, t.hex()) for c, t in rt.clock.by_category.items()],
            astuple(rt.stats),
            None if um is None
            else (astuple(um.stats), [um.residency(n).value for n in rt.env.names()]),
        ))
    return state + [side.halo.messages, side.halo.bytes_sent]


@pytest.mark.parametrize("n", GPU_COUNTS)
def test_a_replay_reusing_a_schedule_equals_one_deriving_its_own(code1_plans, n,
                                                                 monkeypatch):
    plan = code1_plans[n]
    assert plan.schedules  # the live side derived them
    derived = counting(monkeypatch, HaloExchanger, "_derive_schedule")
    for version in GPU_VERSIONS:
        config, rt_config, hardware = model_settings(version, n, calibration=CAL)
        runs = []
        for book in (plan.schedules, {}):
            side = RuntimeSide(config, rt_config, **hardware)
            before = len(derived)
            timings = replay(replace(plan, schedules=book), side, STEPS)
            runs.append((timings, side_state(side), len(derived) - before))
        (reused, reused_state, none), (own, own_state, some) = runs
        assert (none, some) == (0, len(plan.schedules)), version
        assert reused == own, version
        assert reused_state == own_state, version


@pytest.mark.parametrize("constant", ["halo_pack_inefficiency", "halo_buffer_init_fraction"])
def test_sensitivity_halo_points_equal_a_fresh_plan_books(constant):
    """``run_sensitivity`` prices every perturbation on one plan book, so a
    side under a perturbed halo constant meets the book's schedules derived
    under the baseline: it must derive its own."""
    cal = Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)
    plans: dict = {}
    baseline = sensitivity._headlines(cal, plans)
    for factor in (0.5, 2.0):
        perturbed = sensitivity._perturb(cal, constant, factor)
        point = sensitivity._headlines(perturbed, plans)
        assert point == sensitivity._headlines(perturbed, {})
        assert point != baseline
