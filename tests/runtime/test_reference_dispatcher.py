"""The one-engine dispatcher against the three-path dispatcher it replaced.

``reference_dispatcher.RankRuntime`` prices the CPU in a method of its
own, buffers regions in a planner and the cross-region window in two
attributes; ``repro.runtime.RankRuntime`` does all three through one
engine class and one pending-launch buffer. Driven through the same random
stream of entry-point launches (categories mixed), regions, ``sync``, data
directives, registrations and clock swaps, the two must advance their
clocks by the same events to the bit, count the same launches, hold the
same prices and write the same ``metrics.prom``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import CodeVersion, runtime_config_for
from repro.machine.cpu import EPYC_7742_NODE, CpuNodeModel
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import DeviceMemory
from repro.obs.telemetry import Telemetry, activate, deactivate
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime import dispatcher
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.runtime.stream import AsyncQueue
from repro.util.units import GB, MiB

from tests.runtime import reference_dispatcher as reference

ENTRIES = ("loop", "scalar_reduction", "array_reduction", "atomic_loop",
           "kernels_region", "routine_loop")
ARRAYS = {"rho": 96 * MiB, "temp": 64 * MiB, "vr": 33 * MiB + 17, "buf": 3 * MiB}
_tokens = st.sampled_from(
    ["rho", "temp", "vr", "buf", "rho@g2m", "rho@g2p", "temp@g0m", "buf@g1p"]
)


@st.composite
def launches(draw, entries=ENTRIES):
    spec = KernelSpec(
        name=draw(st.sampled_from(["k0", "k1", "k2", "k3", "k4"])),
        category=draw(st.sampled_from(list(LoopCategory))),
        reads=tuple(draw(st.lists(_tokens, max_size=2))),
        writes=tuple(draw(st.lists(_tokens, max_size=1))),
        work_fraction=draw(st.sampled_from([1.0, 0.5, 0.03125])),
        bytes_override=draw(st.sampled_from([None, None, None, 3.5e6])),
        tags=draw(st.sampled_from([frozenset(), frozenset({"mpi_pack"})])),
    )
    return ("launch", draw(st.sampled_from(entries)), spec)


#: Runs of the loops an OpenACC region or window can fuse, so that plans
#: have groups to form, hoist and keep apart.
_fusable = st.lists(launches(("loop", "atomic_loop")), min_size=2, max_size=6)
_directives = st.one_of(
    st.tuples(st.sampled_from(["update_host", "update_device"]),
              st.sampled_from(list(ARRAYS)), st.sampled_from([1.0, 0.25])),
    st.tuples(st.just("host_access"), st.sampled_from(list(ARRAYS)),
              st.sampled_from([None, 1.0e6]),
              st.sampled_from([TimeCategory.UM_FAULT, TimeCategory.MPI_TRANSFER])),
)
_inside = st.one_of(_fusable, st.lists(st.one_of(launches(), st.just(("sync",))), max_size=3))
_outside = st.one_of(
    _fusable,
    st.lists(
        st.one_of(launches(), st.just(("sync",)), st.just(("register",)),
                  st.just(("set_clock",)), _directives),
        max_size=3,
    ),
    st.lists(_inside, max_size=2).map(lambda runs: [("region", sum(runs, []))]),
)
#: A stream: runs drawn from ``_outside``, concatenated.
_streams = st.lists(_outside, max_size=8).map(lambda runs: sum(runs, []))


def build(module, config, queue, cost, num_ranks):
    if config.target == "cpu":
        return module.RankRuntime(config, cpu_model=CpuNodeModel(EPYC_7742_NODE),
                                  num_ranks=num_ranks, cost=cost, queue=queue)
    mode = DataMode.UNIFIED if config.unified_memory else DataMode.MANUAL
    env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
    return module.RankRuntime(config, env=env, gpu=GpuDevice(A100_40GB, 0),
                              num_ranks=num_ranks, cost=cost, queue=queue)


def drive(module, config, ops, *, queue, cost, num_ranks):
    """Run ``ops`` on a fresh rank of ``module``; everything it observed."""
    tel = activate(Telemetry())
    try:
        rt = build(module, config, queue, cost, num_ranks)
        clocks = [rt.clock, SimClock()]
        events = []
        for i, clock in enumerate(clocks):
            clock.subscribe(lambda start, dt, cat, label, i=i: events.append(
                (i, start.hex(), dt.hex(), cat, label)))
        for name, nbytes in ARRAYS.items():
            rt.register_array(name, nbytes)
        extra = 0

        def run(op):
            nonlocal extra
            kind = op[0]
            if kind == "launch":
                getattr(rt, op[1])(op[2])
            elif kind == "region":
                with rt.region():
                    for inner in op[1]:
                        run(inner)
            elif kind == "sync":
                rt.sync()
            elif kind == "register":
                extra += 1
                rt.register_array(f"extra{extra}", extra * MiB)
            elif kind == "set_clock":
                clocks.reverse()
                clocks[0].now = max(clocks[0].now, clocks[1].now)
                rt.set_clock(clocks[0])
            else:
                getattr(rt, kind)(*op[1:])

        for op in ops:
            run(op)
        rt.sync()
        stats = rt.stats
        return dict(
            events=events,
            stats=(stats.kernels, stats.launches, stats.fused_away),
            priced_kernels=rt.priced_kernels,
            um=None if rt.env.um is None else rt.env.um.stats,
            metrics=tel.metrics.to_prometheus_text(),
        )
    finally:
        deactivate(tel)


@pytest.mark.parametrize("queue", [AsyncQueue(), AsyncQueue(0.0, 0.0)], ids=["queue", "free-queue"])
@pytest.mark.parametrize("fusion", [
    dict(cross_region_fusion=False),
    dict(cross_region_fusion=True),
    dict(cross_region_fusion=False, fusion=False),
], ids=["regions", "window", "unfused"])
@pytest.mark.parametrize("version", [v.name for v in CodeVersion])
@settings(max_examples=30, deadline=None)
@given(
    ops=_streams,
    cost=st.sampled_from([KernelCostModel(), KernelCostModel(body_scale=1.015, mpi_buffer_pressure=0.35)]),
    num_ranks=st.sampled_from([1, 8]),
)
def test_one_engine_dispatcher_matches_the_three_path_one(version, fusion, queue,
                                                          ops, cost, num_ranks):
    config = replace(runtime_config_for(CodeVersion[version]), **fusion)
    kw = dict(queue=queue, cost=cost, num_ranks=num_ranks)
    want = drive(reference, config, ops, **kw)
    got = drive(dispatcher, config, ops, **kw)
    assert got == want
