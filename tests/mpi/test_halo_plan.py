"""The exchange plan's contract.

A :class:`~repro.mpi.halo.HaloExchanger` derives each exchange's schedule
once and walks it afterwards. These tests pin what that may and may not
change: the number of plans is bounded by the exchange vocabulary, anything
a plan was derived from rebuilds it when it moves, a plan at rest holds no
array, and every clock advance, launch, message, byte and ghost value is
that of the unplanned engine kept verbatim in ``reference_halo.py`` -- which
moves per-rank arrays, where the planned walk moves rank-group blocks.
"""

import gc
import types
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.shadow import ShadowChecker
from repro.codes import CodeVersion, runtime_config_for
from repro.machine import CpuNodeModel, EPYC_7742_NODE
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT, SLINGSHOT
from repro.machine.memory import DeviceMemory
from repro.mas import MasModel, ModelConfig
from repro.mpi.decomp import Decomposition3D
from repro.mpi.halo import HaloExchanger
from repro.mpi.transport import TransportKind, make_transport
from repro.obs.events import Profiler, ProfilerLane
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, activate, deactivate, session
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.config import Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.engine import Engine
from repro.runtime.kernel import LoopCategory
from repro.runtime.pricing import PricedLaunch
from repro.util.units import GB, MiB
from tests.mpi import reference_halo as ref
from tests.mpi.test_decomp import slab

ACC = dict(loop_backend=uniform_backend(Backend.ACC), fusion=True, async_launch=True)

#: machine name -> (runtime config, data mode, transport kind)
MACHINES = {
    "p2p": (RuntimeConfig(name="acc", **ACC), DataMode.MANUAL, TransportKind.CUDA_AWARE_P2P),
    "p2p-window": (
        RuntimeConfig(name="acc-window", cross_region_fusion=True, **ACC),
        DataMode.MANUAL,
        TransportKind.CUDA_AWARE_P2P,
    ),
    "um": (runtime_config_for(CodeVersion.D2XU), DataMode.UNIFIED, TransportKind.UM_STAGED),
    "cpu": (runtime_config_for(CodeVersion.CPU), DataMode.CPU, TransportKind.CPU_FABRIC),
}


def make_ranks(n, machine="p2p"):
    cfg, mode, _ = MACHINES[machine]
    ranks = []
    for r in range(n):
        if mode is DataMode.CPU:
            rt = RankRuntime(cfg, cpu_model=CpuNodeModel(EPYC_7742_NODE), num_ranks=n)
        else:
            env = DataEnvironment(
                mode, device_memory=DeviceMemory(40 * GB), host_link=DELTA_INTERCONNECT.host
            )
            rt = RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, r % 8), num_ranks=n)
        rt.register_array("f", 64 * MiB)  # "h" stays unregistered on purpose
        ranks.append(rt)
    return ranks


def make_exchanger(cls, dec, machine="p2p", **kw):
    tr = make_transport(MACHINES[machine][2], interconnect=DELTA_INTERCONNECT, fabric=SLINGSHOT)
    return cls(dec, tr, make_ranks(dec.nranks, machine), **kw)


def make_locals(dec, seed, *, stagger_axis=None, members=1):
    """Per-rank ghosted arrays, every cell (ghosts included) seeded."""
    rng = np.random.default_rng(seed)
    out = []
    for r in dec.iter_ranks():
        shape = [n + 2 for n in dec.local_shape(r)]
        if stagger_axis is not None:
            shape[stagger_axis] += 1
        out.append(rng.random(shape if members == 1 else (members, *shape)))
    return out


def profiled(hx):
    """A session whose profiler observes each rank clock under its own
    lane, as ``Telemetry.bind_model`` attaches a model's rank clocks."""
    tel = Telemetry(None)
    for rank, rt in enumerate(hx.ranks):
        lane = f"m0.rank{rank}"
        tel.profiler.attach(rt.clock, lane)
        tel._clock_lanes[id(rt.clock)] = lane
    return tel


def rank_groups(dec):
    """The ranks of each local shape, in order of each group's first rank,
    as ``repro.mas.groups`` groups a model's ranks."""
    by_shape: dict = {}
    for r in dec.iter_ranks():
        by_shape.setdefault(dec.local_shape(r), []).append(r)
    return [tuple(ranks) for ranks in by_shape.values()]


def as_blocks(locals_, groups):
    """Per-rank arrays as one ``(G, B, ...)`` block per group (copies)."""
    return [np.stack([locals_[r].reshape((-1, *locals_[r].shape[-3:])) for r in ranks])
            for ranks in groups]


def rank_rows(blocks, groups, members):
    """Each rank's array among ``blocks``, shaped as ``make_locals`` makes it."""
    rows = {r: blocks[g][row] for g, ranks in enumerate(groups) for row, r in enumerate(ranks)}
    return [rows[r] if members > 1 else rows[r][0] for r in sorted(rows)]


# -- (a) bounded by the vocabulary -------------------------------------------------


class TestPlansAreBoundedByTheVocabulary:
    SMALL = dict(shape=(8, 6, 8), num_ranks=2, pcg_iters=2, sts_stages=2)

    @pytest.mark.parametrize(
        "version, model_kw",
        [
            (CodeVersion.A, {}),
            (CodeVersion.A, dict(halo_overlap=True)),
            (CodeVersion.D2XU, {}),
            (CodeVersion.CPU, {}),
            (CodeVersion.A, dict(ensemble_size=3, nominal_shape=(32, 24, 48))),
        ],
    )
    def test_no_plan_is_built_after_the_second_step(self, version, model_kw):
        model = MasModel(
            ModelConfig(**{**self.SMALL, **model_kw}), runtime_config_for(version)
        )
        model.run(2)
        built, held = model.halo.plans_built, len(model.halo._plans)
        assert built >= held > 0
        model.run(4)
        assert model.halo.plans_built == built
        assert len(model.halo._plans) == held

    @pytest.mark.parametrize("num_ranks", [8, 3])
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("version", [CodeVersion.A, CodeVersion.D2XU, CodeVersion.CPU])
    def test_no_program_is_recorded_after_the_second_step(self, version, telemetry, num_ranks,
                                                          tmp_path):
        """A walk is recorded once per (plan, residency of the arrays each
        rank touches): from the third step on, every exchange meets its
        ranks in residencies they met together before -- also on three
        ranks, whose uneven split makes two rank groups. Under a session
        whose profiler observes every rank clock, too: its walks record,
        then play."""
        with session(tmp_path / "tel" if telemetry else None):
            model = MasModel(
                ModelConfig(**{**self.SMALL, "num_ranks": num_ranks}),
                runtime_config_for(version),
            )
            assert len(model.groups) == (2 if num_ranks == 3 else 1)
            model.run(2)
            recorded = model.halo.walks_recorded
            assert recorded >= len(model.halo._plans) > 0
            model.run(2)
            assert model.halo.walks_recorded == recorded


class TestEveryRankRecordsOrEveryRankPlays:
    def test_a_host_touch_on_one_rank_records_both(self, monkeypatch):
        """A walk is recorded by all ranks' residencies together: after a
        host touch on one rank of two, the next walk charges both ranks
        through the real calls, and the same touch and walk again plays."""
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, "um")
        locs = make_locals(dec, 5)
        for _ in range(3):  # records from each residency met, then plays
            hx.exchange("f", locs)
        recorded = hx.walks_recorded
        rank_of = {id(rt): rank for rank, rt in enumerate(hx.ranks)}
        launched = []

        def loop(rt, spec, real=RankRuntime.loop):
            launched.append(rank_of[id(rt)])
            return real(rt, spec)

        monkeypatch.setattr(RankRuntime, "loop", loop)
        hx.ranks[1].host_access("f")
        hx.exchange("f", locs)
        assert sorted(set(launched)) == [0, 1] and hx.walks_recorded == recorded + 1
        launched.clear()
        hx.ranks[1].host_access("f")
        hx.exchange("f", locs)
        assert launched == [] and hx.walks_recorded == recorded + 1
        (plan,) = hx._plans.values()
        assert len(plan.recordings) == hx.walks_recorded


# -- (b) what a plan was derived from rebuilds it ------------------------------------


class TestInvalidation:
    def setup_method(self):
        self.dec = Decomposition3D((8, 8, 16), 2)
        self.hx = make_exchanger(HaloExchanger, self.dec)
        self.locs = make_locals(self.dec, 0)
        self.hx.exchange("f", self.locs)

    def test_a_repeated_exchange_reuses_the_plan(self):
        (plan,) = self.hx._plans.values()
        self.hx.exchange("f", self.locs)
        pending = self.hx.exchange_begin("f", self.locs)
        self.hx.exchange_finish(pending)
        assert self.hx.plans_built == 1
        assert list(self.hx._plans.values()) == [plan]

    def test_registering_an_array_rebuilds_it(self):
        self.hx.ranks[1].register_array("late", 1 * MiB)
        self.hx.exchange("f", self.locs)
        assert self.hx.plans_built == 2
        self.hx.exchange("f", self.locs)
        assert self.hx.plans_built == 2

    @pytest.mark.parametrize("machine", ["p2p", "um", "cpu"])
    def test_its_lowered_kernels_are_repriced_with_it(self, machine):
        """A plan's pack, unpack and buffer kernels are priced on their
        ranks at launch. A registration moves every rank's epoch and the
        working set the GPU's locality boost reads, so the rebuilt plan's
        walk must charge the new prices: each exchange's clocks are the
        unplanned engine's, to the hex."""
        deltas, prices = [], []
        for cls in (ref.HaloExchanger, HaloExchanger):
            hx = make_exchanger(cls, self.dec, machine, buffer_init_fraction=0.5)
            for late in (False, True):
                if late:
                    for rt in hx.ranks:
                        rt.register_array("late", 20 * GB)
                before = snapshot(hx)["now"]
                hx.exchange("f", self.locs)
                after = snapshot(hx)
                deltas.append(
                    [(b - a).hex() for a, b in zip(before, after["now"])]
                    + [[(c.value, t.hex()) for c, t in cats] for cats in after["by_category"]]
                )
                if cls is HaloExchanger:
                    (plan,) = hx._plans.values()
                    prices.append([hx.ranks[route.src]._lower(route.pack, LoopCategory.PLAIN)[1]
                                   for _, routes in plan.schedule.axes for route in routes])
        assert deltas[2:] == deltas[:2]
        assert hx.plans_built == 2
        if machine != "cpu":  # a CPU loop's price does not read the working set
            assert all(a.body_seconds != b.body_seconds for a, b in zip(*prices))

    def test_a_newly_registered_field_is_read_by_its_pack_kernels(self):
        """The reads of a pack kernel depend on whether the field is a
        registered array: a stale plan would keep ``reads=()``."""
        locs = make_locals(self.dec, 1)
        self.hx.exchange("h", locs)
        for rt in self.hx.ranks:
            rt.register_array("h", 64 * MiB)
        self.hx.exchange("h", locs)
        plan = self.hx._plans[(("h", None),)]
        assert all(route.pack.reads == ("h",)
                   for _, routes in plan.schedule.axes for route in routes)

    @pytest.mark.parametrize("buffer", ["_halo_recv_f_2_m", "_halo_send_f_2_p"])
    def test_exit_data_on_a_staging_buffer_is_still_refused(self, buffer):
        rt = self.hx.ranks[0]
        rt.env.exit_data(buffer)
        with pytest.raises(ValueError, match="not device-resident"):
            self.hx.exchange("f", self.locs)
        rt.env.enter_data(buffer)
        self.hx.exchange("f", self.locs)  # and is accepted again once back

    def test_a_differently_shaped_array_rebuilds_it(self):
        dec = Decomposition3D((8, 8, 16), 2)
        glob = np.random.default_rng(3).random((8, 8, 16))
        for members in (3, 1):  # 4-D batched, then back to 3-D
            locs = []
            for r in dec.iter_ranks():
                a = np.full((members, *(n + 2 for n in dec.local_shape(r))), np.nan)
                a[:, 1:-1, 1:-1, 1:-1] = glob[slab(dec, r)]
                locs.append(a if members > 1 else a[0])
            built = self.hx.plans_built
            self.hx.exchange("f", locs)
            assert self.hx.plans_built == built + 1
            (r0, r1), (t0, t1), (lo, hi) = dec.bounds(0)
            for ghost, phi in ((0, (lo - 1) % 16), (-1, hi % 16)):
                got = locs[0][..., 1:-1, 1:-1, ghost]
                assert np.array_equal(got, np.broadcast_to(glob[r0:r1, t0:t1, phi], got.shape))

    def test_too_small_an_extent_registers_nothing(self):
        hx = make_exchanger(HaloExchanger, self.dec)
        epochs = [rt.env.epoch for rt in hx.ranks]
        with pytest.raises(ValueError, match="too small"):
            hx.exchange("f", [np.zeros((2, 10, 10))] * 2)
        assert [rt.env.epoch for rt in hx.ranks] == epochs
        assert hx.plans_built == 0


# -- (c) a plan at rest holds no array --------------------------------------------


def reachable_arrays(root, opaque=(RankRuntime,)):
    """Every ndarray ``root`` reaches, not looking into code or into
    ``opaque`` objects (by default the rank runtimes, which the exchanger
    holds anyway)."""
    opaque = (type, types.FunctionType, types.ModuleType, *opaque)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def reachable(root, opaque=()):
    """Every object ``root`` reaches, not looking into code or into
    ``opaque`` objects."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, *opaque)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def shares_an_exchanged_array(hx, arrays):
    """The ndarrays reachable from the exchanger, rank runtimes included,
    that share memory with one of ``arrays``."""
    return [a for a in reachable_arrays(hx, opaque=())
            if any(np.shares_memory(a, b) for b in arrays)]


class TestPlanHoldsNoArray:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_arrays_and_payloads_are_released_when_the_exchange_returns(self, overlap):
        """The two ranks are one group: its sweeps' rows are an index
        array (the phi wrap swaps them), held by the plan, never a block."""
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, buffer_init_fraction=0.5)
        hx.set_groups(rank_groups(dec))
        locs = as_blocks(make_locals(dec, 5), rank_groups(dec))
        watched = [weakref.ref(a) for a in locs]
        was_enabled = gc.isenabled()
        gc.disable()  # reference counting alone must free them
        try:
            if overlap:
                hx.exchange_finish(hx.exchange_begin("f", locs))
            else:
                hx.exchange("f", locs)
            assert shares_an_exchanged_array(hx, locs) == []
            assert [a.dtype for a in reachable_arrays(hx._plans)] == [np.intp] * 2
            del locs
            assert [w() for w in watched] == [None]
        finally:
            if was_enabled:
                gc.enable()

    def test_a_per_rank_plan_reaches_no_array_at_all(self):
        """One array per rank is G groups of one: no sweep has rows."""
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, buffer_init_fraction=0.5)
        locs = make_locals(dec, 5)
        hx.exchange("f", locs)
        assert reachable_arrays(hx._plans) == []
        assert shares_an_exchanged_array(hx, locs) == []

    def test_a_failed_walk_releases_them_too(self):
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, "um")
        hx.set_groups(rank_groups(dec))
        locs = as_blocks(make_locals(dec, 5), rank_groups(dec))
        hx.exchange("f", locs)
        hx.ranks[0].env.unregister("_halo_recv_f_2_m")  # UM stages per message
        hx._plans[(("f", None),)] = _with_guard(hx, locs)
        with pytest.raises(KeyError):
            hx.exchange("f", locs)
        assert shares_an_exchanged_array(hx, locs) == []

    def test_a_failed_overlapped_begin_detaches_its_comm_clocks(self):
        """An overlapped begin attaches each comm clock to the session's
        profiler; when its walk fails no exchange is returned to finish, so
        the begin detaches them itself."""
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, "um")
        hx.set_groups(rank_groups(dec))
        locs = as_blocks(make_locals(dec, 5), rank_groups(dec))
        tel = activate(profiled(hx))
        try:
            hx.exchange("f", locs)
            hx.ranks[0].env.unregister("_halo_recv_f_2_m")
            hx._plans[(("f", None),)] = _with_guard(hx, locs)
            assert tel.profiler.attached_count == dec.nranks
            with pytest.raises(KeyError):
                hx.exchange_begin("f", locs)
            assert tel.profiler.attached_count == dec.nranks
            assert [rt.clock.observer_count for rt in hx.ranks] == [1] * dec.nranks
        finally:
            deactivate(tel)

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("machine", ["p2p", "um", "cpu"])
    def test_programs_hold_numbers_categories_and_residencies(self, machine, observed):
        """A recording, the order its walk interleaved the ranks' adds in
        included, reaches no rank runtime, clock, environment, engine,
        model, array or code: only floats, enum members, labels and counts.
        No session, registry or profiler is reachable from the plan, also
        after walks under one."""
        dec = Decomposition3D((8, 8, 16), 2)
        hx = make_exchanger(HaloExchanger, dec, machine, buffer_init_fraction=0.5)
        locs = make_locals(dec, 5)
        tel = activate(profiled(hx)) if observed else None
        try:
            for _ in range(2):
                hx.exchange("f", locs)
                hx.exchange_finish(hx.exchange_begin("f", locs))
        finally:
            if tel is not None:
                deactivate(tel)
        (plan,) = hx._plans.values()
        assert len(plan.recordings) == hx.walks_recorded >= 1
        # the real calls interleave the ranks message by message
        assert all(any(recording.orders) for recording in plan.recordings.values())
        barred = (np.ndarray, RankRuntime, SimClock, DataEnvironment, Engine, MasModel,
                  types.FunctionType, types.MethodType)
        seen, stack = set(), [plan.recordings]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, barred), type(obj)
            stack.extend(gc.get_referents(obj))
        session_types = (Telemetry, MetricsRegistry, Profiler, ProfilerLane)
        assert not [type(obj) for obj in reachable(plan) if isinstance(obj, session_types)]

    @pytest.mark.parametrize("machine", ["p2p", "um", "cpu"])
    def test_a_plan_reaches_no_engine_price_clock_or_environment(self, machine):
        """A walk prices each kernel on its rank as it launches, so a plan at
        rest -- of a synchronous, an overlapped or a grouped exchange -- holds
        no price, and no engine, clock or data environment a price reaches."""
        dec = Decomposition3D((8, 8, 16), 4)
        hx = make_exchanger(HaloExchanger, dec, machine, buffer_init_fraction=0.5)
        locs = make_locals(dec, 5)
        hx.exchange("f", locs)
        staggered = make_locals(dec, 6, stagger_axis=2)
        hx.exchange_finish(hx.exchange_begin("h", staggered, stagger_axis=2))
        hx.set_groups(rank_groups(dec))
        hx.exchange_many([("f", as_blocks(locs, rank_groups(dec)), None),
                          ("h", as_blocks(staggered, rank_groups(dec)), 2)])
        assert len(hx._plans) == 3
        barred = (Engine, PricedLaunch, SimClock, DataEnvironment)
        assert not [type(obj) for obj in reachable(hx._plans, opaque=(types.FunctionType,))
                    if isinstance(obj, barred)]


def _with_guard(hx, locs):
    """The exchanger's one plan, re-stamped as current (to fail mid-walk)."""
    (plan,) = hx._plans.values()
    return replace(plan, guard=hx._guard([("f", locs, None)]))


# -- (d) the walk equals the unplanned engine ----------------------------------------


def snapshot(hx):
    for rt in hx.ranks:
        rt.sync()
    um = [rt.env.um for rt in hx.ranks]
    return dict(
        now=[rt.clock.now for rt in hx.ranks],
        by_category=[list(rt.clock.by_category.items()) for rt in hx.ranks],
        # to the bit, and in insertion order
        clocks=[
            (rt.clock.now.hex(), [(c.value, t.hex()) for c, t in rt.clock.by_category.items()])
            for rt in hx.ranks
        ],
        launches=[(rt.stats.launches, rt.stats.kernels, rt.stats.fused_away) for rt in hx.ranks],
        pages=[
            None if m is None
            # by registration order
            else (astuple(m.stats), [m.residency(n).value for n in rt.env.names()])
            for m, rt in zip(um, hx.ranks)
        ],
        messages=hx.messages,
        bytes_sent=hx.bytes_sent,
        inflight=hx.inflight,
    )


@st.composite
def exchanges(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(3))
    periodic = tuple(draw(st.booleans()) for _ in range(3))
    try:
        dec = Decomposition3D(shape, n, periodic=periodic)
    except ValueError:
        assume(False)
    assume(min(min(dec.local_shape(r)) for r in dec.iter_ranks()) >= 1)
    fields = draw(
        st.lists(
            st.tuples(st.sampled_from(["f", "h"]), st.sampled_from([None, 0, 1, 2])),
            min_size=1, max_size=2, unique_by=lambda t: t[0],
        )
    )
    walks = draw(st.lists(st.sampled_from(["sync", "overlap"]), min_size=4, max_size=6))
    return dict(
        dec=dec,
        fields=fields,
        members=draw(st.sampled_from([1, 3])),
        machine=draw(st.sampled_from(sorted(MACHINES))),
        costs=draw(st.sampled_from([{}, dict(pack_inefficiency=4.0, buffer_init_fraction=0.75)])),
        two_nodes=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
        walks=walks,
        # before each walk after the first, per rank, a name whose pages the
        # host touches (an index into the rank's names), or None
        flips=[
            draw(st.lists(st.none() | st.integers(0, 99), min_size=n, max_size=n))
            for _ in walks[1:]
        ],
        # the walk before which rank 0's clock gains an observer, if any
        observed=draw(st.none() | st.integers(1, len(walks) - 1)),
        shadow=draw(st.sampled_from([False, False, True])),
    )


class TestWalkEqualsTheUnplannedEngine:
    """Each exchange is walked four to six times, synchronously or
    overlapped, so recorded walks are played. Under UM the host touches
    some ranks' fields or staging buffers between walks, so those ranks
    start from another residency and every rank records again. A clock
    observer attached mid-sequence stops reuse in every walk that charges
    its clock, and sees each advance the unplanned engine makes there, in
    its order. The planned side exchanges one block per rank
    group (a ragged decomposition has several); the oracle, per-rank
    arrays. In some examples a shadow checker watches every rank of both
    sides, so every kernel goes through ``RankRuntime.loop``."""

    @staticmethod
    def sides(case):
        """The oracle's side, then the planned one: (exchanger, items,
        shadow checkers)."""
        dec = case["dec"]
        kw = dict(case["costs"], element_bytes=8 * case["members"])
        if case["two_nodes"]:
            kw["rank_nodes"] = [r * 2 // dec.nranks for r in dec.iter_ranks()]
        groups = rank_groups(dec)
        sides = []
        for module in (ref, None):
            cls = HaloExchanger if module is None else module.HaloExchanger
            hx = make_exchanger(cls, dec, case["machine"], **kw)
            items = [
                (name, make_locals(dec, case["seed"] + i, stagger_axis=stagger,
                                   members=case["members"]), stagger)
                for i, (name, stagger) in enumerate(case["fields"])
            ]
            if module is None:
                hx.set_groups(groups)
                items = [(name, as_blocks(locs, groups), stagger) for name, locs, stagger in items]
            checkers = [ShadowChecker() for _ in hx.ranks] if case["shadow"] else []
            for rt, checker in zip(hx.ranks, checkers):
                rt.attach_shadow(checker)
            sides.append((hx, items, checkers))
        return sides

    @staticmethod
    def walk(case, side, walk, how, observe):
        """One side's walk number ``walk`` (``how``: "sync" or "overlap"):
        first new values and host touches, and ``observe(hx)`` before the
        walk that attaches the case's observer."""
        hx, items, _ = side
        if walk:
            # new values, same arrays: per-rank noise, so a ghost the walk
            # failed to refill differs from its source
            for i, (_, locals_, _) in enumerate(items):
                if isinstance(hx, HaloExchanger):
                    locals_ = rank_rows(locals_, rank_groups(case["dec"]), case["members"])
                for r, a in enumerate(locals_):
                    a += np.random.default_rng((case["seed"], walk, i, r)).random(a.shape)
            if case["machine"] == "um":
                for rt, flip in zip(hx.ranks, case["flips"][walk - 1]):
                    if flip is not None:
                        names = rt.env.names()
                        rt.host_access(names[flip % len(names)])
        if walk == case["observed"]:
            observe(hx)
        if how == "sync":
            hx.exchange_many(items)
        else:
            pending = hx.exchange_begin_many(items)
            hx.ranks[0].clock.advance(3e-5, TimeCategory.COMPUTE, "interior")
            hx.exchange_finish(pending)

    @staticmethod
    def assert_same(case, sides):
        (hx_ref, items_ref, _), (hx_new, items_new, _) = sides
        assert snapshot(hx_new) == snapshot(hx_ref)
        for (_, a_new, _), (_, a_ref, _) in zip(items_new, items_ref):
            for x, y in zip(rank_rows(a_new, rank_groups(case["dec"]), case["members"]), a_ref):
                assert np.array_equal(x, y)

    @staticmethod
    def assert_reused(case, sides):
        (_, _, checkers_ref), (hx_new, _, checkers_new) = sides
        assert hx_new.plans_built == 1
        (plan,) = hx_new._plans.values()
        assert hx_new.walks_recorded == len(plan.recordings)  # residencies met again are a hit
        if case["shadow"]:  # ranks a checker watches charge every launch through loop()
            assert plan.recordings == {}
            reports = [[f.render() for f in c.report()] for c in checkers_new]
            assert reports == [[f.render() for f in c.report()] for c in checkers_ref]
        elif case["machine"] != "p2p-window":  # the window's ranks charge no launch at once
            assert len(plan.recordings) >= 1
        return plan

    @settings(max_examples=60, deadline=None)
    @given(exchanges())
    def test_clocks_counters_and_ghosts(self, case):
        sides = self.sides(case)
        seen = {id(side[0]): [] for side in sides}

        def observe(hx):
            hx.ranks[0].clock.subscribe(
                lambda start, dt, category, label, seen=seen[id(hx)]:
                seen.append((start, dt, category, label))
            )

        for walk, how in enumerate(case["walks"]):
            for side in sides:
                self.walk(case, side, walk, how, observe)
            self.assert_same(case, sides)
            assert seen[id(sides[1][0])] == seen[id(sides[0][0])]
        self.assert_reused(case, sides)

    def walk_under_sessions(self, case, free_sync=False):
        """Walk both sides, each under its own session whose profiler
        observes every rank clock and each overlapped begin's comm clocks,
        checking after each walk that the rows and the metrics are the
        oracle's; returns the planned side's plan. ``free_sync`` makes the
        UM host sync cost zero seconds: a clock add that makes no row."""
        sides = self.sides(case)
        for hx, *_ in sides if free_sync else ():
            hx.transport = replace(hx.transport, host_mpi_overhead=0.0)
        sessions = [profiled(side[0]) for side in sides]

        def rows(tel):
            return [(lane, start.hex(), dt.hex(), category.value, label)
                    for lane, start, dt, category, label in zip(*tel.profiler.columns)]

        for walk, how in enumerate(case["walks"]):
            for side, tel in zip(sides, sessions):
                activate(tel)
                try:
                    self.walk(case, side, walk, how,
                              lambda hx: hx.ranks[0].clock.subscribe(lambda *event: None))
                finally:
                    deactivate(tel)
            self.assert_same(case, sides)
            assert rows(sessions[1]) == rows(sessions[0])
            assert sessions[1].metrics.to_json() == sessions[0].metrics.to_json()
        assert [tel.profiler.attached_count for tel in sessions] == [case["dec"].nranks] * 2
        return self.assert_reused(case, sides)

    @settings(max_examples=40, deadline=None)
    @given(exchanges())
    def test_profiler_rows_and_metrics_under_a_session(self, case):
        """A walk that plays under a session appends the rows that the
        oracle's real calls append, in their order, and ticks the same
        counters to the bit. The case's observer joins rank 0's profiler
        lane mid-sequence, so from then on every walk takes the real calls."""
        free_sync = case["machine"] == "um" and case["seed"] % 2 == 1
        plan = self.walk_under_sessions(case, free_sync=free_sync)
        # the first walk charges and records every rank, under the profiler
        assert bool(plan.recordings) == (not case["shadow"] and case["machine"] != "p2p-window")

    @pytest.mark.parametrize("how", ["sync", "overlap"])
    def test_a_zero_second_add_makes_no_row(self, how):
        dec = Decomposition3D((8, 8, 16), 2)
        case = dict(dec=dec, fields=[("f", None)], members=1,
                    machine="um", costs={}, two_nodes=False, seed=1, walks=[how] * 6,
                    flips=[[None] * dec.nranks] * 5, observed=None, shadow=False)
        plan = self.walk_under_sessions(case, free_sync=True)
        # two residencies alternate: the later walks play
        assert len(plan.recordings) == 2

    @pytest.mark.parametrize("how", ["sync", "overlap"])
    def test_a_walk_recorded_unobserved_plays_under_a_session(self, how, monkeypatch):
        """A recording keeps the order of the real calls whether or not a
        profiler watched them: walks under a session play a walk recorded
        without one, and append the oracle's rows."""
        dec = Decomposition3D((8, 8, 16), 4)
        case = dict(dec=dec, fields=[("f", None), ("h", 2)], members=1,
                    machine="p2p", costs={}, two_nodes=False, seed=2, walks=[how] * 3,
                    flips=[[None] * dec.nranks] * 2, observed=None, shadow=False)
        sides = self.sides(case)
        for side in sides:
            self.walk(case, side, 0, how, None)
        launched, planned = [], {id(rt) for rt in sides[1][0].ranks}

        def loop(rt, spec, real=RankRuntime.loop):
            if id(rt) in planned:
                launched.append(spec)
            return real(rt, spec)

        monkeypatch.setattr(RankRuntime, "loop", loop)
        sessions = [profiled(side[0]) for side in sides]
        for walk in (1, 2):
            for side, tel in zip(sides, sessions):
                activate(tel)
                try:
                    self.walk(case, side, walk, how, None)
                finally:
                    deactivate(tel)
            self.assert_same(case, sides)
            rows = [[(lane, start.hex(), dt.hex(), category.value, label)
                     for lane, start, dt, category, label in zip(*tel.profiler.columns)]
                    for tel in sessions]
            assert rows[1] == rows[0] != []
            assert sessions[1].metrics.to_json() == sessions[0].metrics.to_json()
        assert launched == [] and sides[1][0].walks_recorded == 1


class TestTelemetryChildrenLiveInTheSession:
    """Counters are resolved once per plan into ``MetricsRegistry.bound``,
    so they die with the session: a plan that outlives one counts into the
    next from zero, and the totals are the unplanned engine's."""

    @staticmethod
    def halo_metrics(cls, tmp_path, name, exchanges):
        dec = Decomposition3D((8, 8, 16), 4)
        hx = make_exchanger(cls, dec)
        items = [("f", make_locals(dec, 0), None), ("h", make_locals(dec, 1, stagger_axis=2), 2)]
        out = []
        for i, n in enumerate(exchanges):
            with session(tmp_path / f"{name}{i}") as tel:
                for _ in range(n):
                    hx.exchange_many(items)
                    hx.exchange_finish(hx.exchange_begin("f", items[0][1]))
                out.append({k: v for k, v in tel.metrics.to_json().items() if k.startswith("halo_")})
        return out

    def test_totals_equal_the_unplanned_engine_per_session(self, tmp_path):
        new = self.halo_metrics(HaloExchanger, tmp_path, "new", (2, 1))
        old = self.halo_metrics(ref.HaloExchanger, tmp_path, "old", (2, 1))
        assert new == old
        by_rank = [s["value"] for s in new[1]["halo_bytes_total"]["samples"]]
        assert len(by_rank) == 4 and all(v > 0 for v in by_rank)
        first = [s["value"] for s in new[0]["halo_bytes_total"]["samples"]]
        assert first == [2 * v for v in by_rank]  # the second session began at zero


class TestAnAxisThatSendsNothingIsDropped:
    """After a walk's first barrier every clock stands at the same time, so
    an axis without messages would add nothing: a plan keeps its first
    axis, whose barrier equalizes the clocks, and every axis that sends."""

    def test_a_2_1_4_plan_has_two_axes(self):
        dec = Decomposition3D((10, 8, 16), 8, dims=(2, 1, 4))
        hx = make_exchanger(HaloExchanger, dec)
        hx.exchange("f", make_locals(dec, 0))
        (plan,) = hx._plans.values()
        assert [axis for axis, _ in plan.schedule.axes] == [0, 2]
        assert len(plan.sweeps) == 2

    def test_the_first_axis_stays_when_it_sends_nothing(self):
        dec = Decomposition3D((10, 8, 16), 8, dims=(1, 2, 4))
        hx = make_exchanger(HaloExchanger, dec)
        hx.exchange("f", make_locals(dec, 0))
        (plan,) = hx._plans.values()
        assert [(axis, len(routes)) for axis, routes in plan.schedule.axes] == [
            (0, 0), (1, 8), (2, 16)]
        assert [len(sweeps) for sweeps in plan.sweeps] == [0, 8, 16]
