"""Memoised launch pricing: a held price must never outlive what it was
derived from, must equal a price derived from scratch, and must hold on
to nothing of the launch it was derived for."""

import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cpu import EPYC_7742_NODE, CpuNodeModel
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import AllocationError, DeviceMemory, Residency
from repro.machine.unified_memory import PageMigrationStats
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import (
    ArrayReductionStrategy,
    Backend,
    RuntimeConfig,
    uniform_backend,
)
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.doconcurrent import UnsupportedLoopError, check_supported
from repro.runtime.engine import Engine
from repro.runtime.fusion import plan_fusion
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.stream import AsyncQueue
from repro.util.units import GB, MiB

ARRAYS = {"rho": 96 * MiB, "temp": 64 * MiB, "vr": 33 * MiB + 17, "buf": 3 * MiB}


def make_env(mode=DataMode.MANUAL, arrays=ARRAYS):
    env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
    for name, nbytes in arrays.items():
        env.register(name, nbytes)
        if mode is DataMode.MANUAL:
            env.enter_data(name)
    return env


def make_engine(kind, env, clock, *, async_launch=True, flipped=False,
                cost=None, working_set_bytes=None):
    """The engine as ``RankRuntime`` builds it for OpenACC loops (``acc``)
    or for DC loops (``dc``: synchronous, restriction-checked)."""
    dc = kind == "dc"
    strategy = (ArrayReductionStrategy.FLIPPED_DC if flipped
                else ArrayReductionStrategy.DC_ATOMIC if dc
                else ArrayReductionStrategy.ACC_ATOMIC)
    return Engine(
        clock=clock, env=env, machine=GpuDevice(A100_40GB, 0),
        cost=cost or KernelCostModel(), queue=AsyncQueue(),
        working_set_bytes=working_set_bytes,
        async_launch=async_launch and not dc,
        array_reduction=strategy,
        admit=partial(check_supported, dc2x_reduce=True, routines_inlined=True,
                      array_reduction=strategy) if dc else None,
    )


def evict_all(um):
    """Make every unified-memory allocation host-resident again."""
    for name in um._residency:
        um._residency[name] = Residency.HOST


def charge(engine, spec):
    """``spec`` launched on its own: priced, then charged."""
    engine.charge(engine.price(spec), spec.category)


def recorded(clock):
    """Subscribe a recorder; floats as hex so equality is to the bit."""
    stream = []
    clock.subscribe(lambda start, dt, cat, label: stream.append(
        (start.hex(), dt.hex(), cat, label)))
    return stream


def gpu_runtime(config, arrays=()):
    mode = DataMode.UNIFIED if config.unified_memory else DataMode.MANUAL
    env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
    rt = RankRuntime(config, env=env, gpu=GpuDevice(A100_40GB, 0))
    for name, nbytes in arrays:
        rt.register_array(name, nbytes)
    return rt


def acc_config(**kw):
    return RuntimeConfig(name="acc", loop_backend=uniform_backend(Backend.ACC),
                         fusion=True, async_launch=True, **kw)


def dc_config(**kw):
    return RuntimeConfig(name="dc", loop_backend=uniform_backend(Backend.DC2X),
                         array_reduction=ArrayReductionStrategy.FLIPPED_DC,
                         inline_routines=True, **kw)


# -- a held price is dropped when what it was derived from moves ----------------


class TestStalePrices:
    @pytest.mark.parametrize("kind", ["acc", "dc"])
    @pytest.mark.parametrize("leave", ["exit_data", "unregister"])
    def test_default_present_is_rechecked_after_array_leaves(self, kind, leave):
        env = make_env()
        engine = make_engine(kind, env, SimClock())
        spec = KernelSpec("k", reads=("rho",), writes=("temp@g2m",), bytes_override=1e6)
        charge(engine, spec)
        charge(engine, spec)
        getattr(env, leave)("temp")
        with pytest.raises(AllocationError, match="temp"):
            charge(engine, spec)

    def test_dispatcher_rechecks_presence(self):
        rt = gpu_runtime(acc_config(), [("a", 8 * MiB)])
        rt.loop(KernelSpec("k", writes=("a",)))
        rt.env.exit_data("a")
        with pytest.raises(AllocationError):
            rt.loop(KernelSpec("k", writes=("a",)))

    @pytest.mark.parametrize("config", [acc_config(), dc_config()], ids=["acc", "dc"])
    def test_registering_an_array_reprices_to_a_fresh_runtimes_value(self, config):
        """The working set feeds the locality boost, so a price derived
        before a registration is wrong after it."""
        spec = KernelSpec("k", reads=("a",), writes=("a",))
        grown = gpu_runtime(config, [("a", 512 * MiB)])
        grown.loop(spec)
        before = grown.clock.by_category[TimeCategory.COMPUTE]
        grown.register_array("b", 20 * GB)
        grown.loop(spec)
        after = grown.clock.by_category[TimeCategory.COMPUTE] - before

        fresh = gpu_runtime(config, [("a", 512 * MiB), ("b", 20 * GB)])
        fresh.loop(spec)
        assert after == fresh.clock.by_category[TimeCategory.COMPUTE]
        assert after > before  # less locality boost with the larger working set

    def test_cpu_price_follows_a_resized_array(self):
        cfg = RuntimeConfig(name="cpu", target="cpu")
        rt = RankRuntime(cfg, cpu_model=CpuNodeModel(EPYC_7742_NODE))
        rt.register_array("a", 8 * MiB)
        rt.loop(KernelSpec("k", writes=("a",)))
        t_small = rt.clock.now
        rt.env.unregister("a")
        rt.register_array("a", 16 * MiB)
        rt.loop(KernelSpec("k", writes=("a",)))
        assert rt.clock.now - t_small == pytest.approx(2 * t_small)

    @pytest.mark.parametrize("kind", ["acc", "dc"])
    def test_um_kernel_faults_again_after_every_host_touch(self, kind):
        """Residency is state, not price: a memoised kernel still asks the
        paging engine on every launch."""
        env, ref_env = make_env(DataMode.UNIFIED), make_env(DataMode.UNIFIED)
        engine = make_engine(kind, env, SimClock())
        spec = KernelSpec("k", reads=("rho",), writes=("buf",), work_fraction=0.5)
        for _ in range(3):
            engine.clock = SimClock()
            stream = recorded(engine.clock)
            charge(engine, spec)
            faults = [(dt, cat, label) for _, dt, cat, label in stream
                      if cat is TimeCategory.UM_FAULT]
            # the un-memoised reference: DataEnvironment.prepare_kernel
            want = [(c.seconds.hex(), c.category, c.label)
                    for c in ref_env.prepare_kernel(spec)]
            assert faults == want and len(faults) == 2
            assert env.um.stats == ref_env.um.stats
            del stream[:]
            charge(engine, spec)  # resident now: no fault
            assert all(cat is not TimeCategory.UM_FAULT for _, _, cat, _ in stream)
            assert env.um.stats == ref_env.um.stats
            for e in (env, ref_env):
                e.host_access("rho")
                e.host_access("buf")
        assert env.um.stats.faults_h2d == ref_env.um.stats.faults_h2d > 0

    def test_set_clock_retargets_memoised_charges(self):
        """The overlapped halo engine prices on the main clock, then
        charges the same kernels to a detached communication clock."""
        rt = gpu_runtime(acc_config(), [("a", 8 * MiB)])
        spec = KernelSpec("pack", reads=("a",), tags=frozenset({"mpi_pack"}))
        rt.loop(spec)
        main, comm = rt.clock, SimClock(now=rt.clock.now)
        t_main = main.now
        priced = {c: t for c, t in main.by_category.items() if c is not TimeCategory.H2D}
        rt.set_clock(comm)
        rt.loop(spec)
        rt.set_clock(main)
        assert main.now == t_main
        assert comm.by_category == priced
        rt.loop(spec)
        assert main.now - t_main == comm.now - t_main


@pytest.mark.parametrize("config", [
    acc_config(), dc_config(), RuntimeConfig(name="cpu", target="cpu"),
], ids=["acc", "dc", "cpu"])
def test_a_price_that_is_not_finite_is_refused_before_any_clock_moves(config):
    """A held price is charged without ``SimClock.advance``'s check, so it
    is checked once, when derived."""
    if config.target == "cpu":
        rt = RankRuntime(config, cpu_model=CpuNodeModel(EPYC_7742_NODE))
        rt.register_array("a", 8 * MiB)
    else:
        rt = gpu_runtime(config, [("a", 8 * MiB)])
    before = (rt.clock.now, dict(rt.clock.by_category))
    with pytest.raises(ValueError, match="finite and non-negative"):
        rt.scalar_reduction(KernelSpec("k", reads=("a",), bytes_override=math.nan))
    assert (rt.clock.now, rt.clock.by_category) == before
    assert rt.stats.launches == 0 and rt.priced_kernels == 0


def test_cost_key_is_every_compared_field():
    """A field added to KernelSpec must enter the key (or be excluded
    from comparison like ``body``), or held prices would ignore it."""
    import dataclasses

    spec = KernelSpec("k", LoopCategory.ATOMIC_OTHER, ("a",), ("b@g0m",), 0.5, 0.25,
                      7.0, lambda: None, frozenset({"mpi_pack"}))
    compared = tuple(
        getattr(spec, f.name) for f in dataclasses.fields(spec) if f.compare
    )
    assert spec.cost_key == compared
    assert spec.body not in spec.cost_key


# -- a held price equals a price derived from scratch ------------------------------

_tokens = st.sampled_from(
    ["rho", "temp", "vr", "buf", "rho@g2m", "rho@g2p", "temp@g0m", "buf@g1p"]
)


@st.composite
def specs(draw):
    return KernelSpec(
        name=draw(st.sampled_from(["k0", "k1", "k2", "k3"])),
        category=draw(st.sampled_from(list(LoopCategory))),
        reads=tuple(draw(st.lists(_tokens, max_size=3))),
        writes=tuple(draw(st.lists(_tokens, max_size=2))),
        flops_per_byte=draw(st.sampled_from([0.0, 0.125, 40.0])),
        work_fraction=draw(st.sampled_from([1.0, 0.5, 0.03125])),
        bytes_override=draw(st.sampled_from([None, None, 0.0, 3.5e6])),
        tags=draw(st.sampled_from([frozenset(), frozenset({"mpi_pack"})])),
    )


@st.composite
def engine_settings(draw):
    return dict(
        kind=draw(st.sampled_from(["acc", "dc"])),
        mode=draw(st.sampled_from([DataMode.MANUAL, DataMode.UNIFIED])),
        async_launch=draw(st.booleans()),
        flipped=draw(st.booleans()),
        cost=KernelCostModel(
            mpi_buffer_pressure=draw(st.sampled_from([0.0, 0.35])),
            body_scale=draw(st.sampled_from([1.0, 1.015])),
        ),
        working_set_bytes=draw(st.sampled_from([None, 3.0 * GB, 36.0 * GB])),
    )


def _run(stream_of, kernels, *, region):
    """Charge ``kernels`` one by one, then (OpenACC) once more as a fused
    region; ``stream_of(n)`` gives the engine for the n-th launch. Returns
    the launches the backend refused to compile."""
    refused = []
    for n, spec in enumerate(kernels):
        try:
            charge(stream_of(n), spec)
        except UnsupportedLoopError as exc:
            refused.append((n, str(exc)))
    if region:
        stream_of(len(kernels)).charge_region(plan_fusion(kernels, enabled=True))
    return refused


@settings(max_examples=60, deadline=None)
@given(settings_=engine_settings(), kernels=st.lists(specs(), min_size=1, max_size=8))
def test_warm_engine_charges_what_a_cold_engine_prices(settings_, kernels):
    kind, mode = settings_.pop("kind"), settings_.pop("mode")
    region = kind == "acc"

    # warm: one engine that has launched everything before
    env_w = make_env(mode)
    warm = make_engine(kind, env_w, SimClock(), **settings_)
    _run(lambda n: warm, kernels, region=region)
    held = warm.priced_kernels
    if mode is DataMode.UNIFIED:
        evict_all(env_w.um)
        env_w.um.stats = PageMigrationStats()
    warm.stats = type(warm.stats)()
    warm.clock = SimClock()
    warm_stream = recorded(warm.clock)
    warm_refused = _run(lambda n: warm, kernels, region=region)
    assert warm.priced_kernels == held  # nothing re-derived

    # cold: every launch on an engine that has priced nothing
    env_c, clock_c = make_env(mode), SimClock()
    cold_stream = recorded(clock_c)
    engines = []

    def cold(n):
        engines.append(make_engine(kind, env_c, clock_c, **settings_))
        return engines[-1]

    cold_refused = _run(cold, kernels, region=region)

    assert warm_stream == cold_stream
    assert warm_refused == cold_refused
    assert warm.stats.kernels == sum(e.stats.kernels for e in engines)
    assert warm.stats.launches == sum(e.stats.launches for e in engines)
    assert warm.stats.fused_away == sum(e.stats.fused_away for e in engines)
    if mode is DataMode.UNIFIED:
        assert env_w.um.stats == env_c.um.stats


# -- the dispatcher runs each body once, whatever path prices it --------------------


@pytest.mark.parametrize("config", [
    acc_config(), acc_config(cross_region_fusion=True), dc_config(),
    RuntimeConfig(name="cpu", target="cpu"),
], ids=["acc", "acc-window", "dc", "cpu"])
def test_dispatch_runs_each_body_exactly_once(config):
    if config.target == "cpu":
        rt = RankRuntime(config, cpu_model=CpuNodeModel(EPYC_7742_NODE))
        rt.register_array("a", 8 * MiB)
        rt.register_array("b", 8 * MiB)
    else:
        rt = gpu_runtime(config, [("a", 8 * MiB), ("b", 8 * MiB)])
    calls = []

    def body(tag):
        return lambda: calls.append(tag) or tag

    assert rt.loop(KernelSpec("direct", writes=("a",), body=body("direct"))) == "direct"
    with rt.region():
        assert rt.loop(KernelSpec("r1", writes=("a",), body=body("r1"))) == "r1"
        assert rt.loop(KernelSpec("r2", writes=("b",), body=body("r2"))) == "r2"
    assert rt.scalar_reduction(KernelSpec("dot", reads=("a",), body=body("dot"))) == "dot"
    rt.sync()
    assert calls == ["direct", "r1", "r2", "dot"]
    assert rt.stats.kernels == 4


# -- a held price holds nothing of the launch ----------------------------------------


class _Payload:
    """Stands in for a state array a kernel body captured."""


@pytest.mark.parametrize("config", [
    acc_config(), acc_config(cross_region_fusion=True), dc_config(),
], ids=["acc", "acc-window", "dc"])
def test_memo_keeps_no_body_and_no_captured_array(config):
    rt = gpu_runtime(config, [("a", 8 * MiB)])
    refs = []

    def dispatch(name, entry):
        payload, array = _Payload(), np.zeros(16)
        refs.extend([weakref.ref(payload), weakref.ref(array)])
        entry(KernelSpec(name, writes=("a",), body=lambda: (payload, array.sum())[1]))

    dispatch("direct", rt.scalar_reduction)
    dispatch("plain", rt.loop)           # buffered by the window, if any
    with rt.region():
        dispatch("in_region", rt.loop)   # buffered by the planner
    rt.sync()
    assert rt.priced_kernels == 3
    gc.collect()
    assert [r() for r in refs] == [None] * 6


@pytest.mark.parametrize("version", ["CPU", "A", "AD", "ADU", "AD2XU", "D2XU", "D2XAD"])
def test_memo_stops_growing_after_the_first_step(version):
    from repro import codes, mas

    model = mas.MasModel(
        mas.ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2, sts_stages=2),
        codes.runtime_config_for(codes.CodeVersion[version]),
    )
    model.step()
    held = [rt.priced_kernels for rt in model.ranks]
    assert all(40 < n < 400 for n in held)
    for _ in range(3):
        model.step()
        assert [rt.priced_kernels for rt in model.ranks] == held
