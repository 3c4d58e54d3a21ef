"""A price is numbers plus names, and the numbers are shared.

``Engine.price`` derives a kernel's body and gap seconds once per (bytes
moved, flops per byte, loop category, ``mpi_pack`` tag) in its memo's
(epoch, working set) window, so kernels that differ only in names -- the
fields of one halo face -- share them. These properties pin that sharing
to a fresh derivation: every launch a rank lowers, in any order and across
registrations that move the window, equals, field by field and float by
float in hex, what a rank with an empty memo derives for that launch alone
in the same state. The engines are the OpenACC, DC (with Code 5's
kernels-region rewrite) and CPU ones, under manual and unified-memory data.
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.codes import CodeVersion, runtime_config_for
from repro.machine import CpuNodeModel, EPYC_7742_NODE
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import DELTA_INTERCONNECT
from repro.machine.memory import DeviceMemory
from repro.runtime.cost import KernelCostModel
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.doconcurrent import UnsupportedLoopError
from repro.runtime.kernel import KernelSpec, LoopCategory
from repro.util.units import GB, MiB

#: ACC and DC engines under manual data (A, AD, D2XAD) and UM (ADU, D2XU),
#: the kernels-region rewrite (D2XAD, D2XU) and the CPU node.
VERSIONS = ("A", "AD", "ADU", "D2XU", "D2XAD", "CPU")

#: A buffer-pressure coefficient, so the ``mpi_pack`` tag changes the body.
COST = KernelCostModel(mpi_buffer_pressure=0.5, body_scale=1.01)

ARRAYS = ("a", "b", "c")


def make_runtime(version: str, registered: list[tuple[str, int]]) -> RankRuntime:
    """A rank of ``version`` with ``registered`` arrays, in that order."""
    cfg = runtime_config_for(CodeVersion[version])
    if cfg.target == "cpu":
        rt = RankRuntime(cfg, cpu_model=CpuNodeModel(EPYC_7742_NODE), num_ranks=2, cost=COST)
    else:
        mode = DataMode.UNIFIED if cfg.unified_memory else DataMode.MANUAL
        env = DataEnvironment(
            mode, device_memory=DeviceMemory(40 * GB), host_link=DELTA_INTERCONNECT.host
        )
        rt = RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, 0), num_ranks=2, cost=COST)
    rt.register_arrays(registered)
    return rt


specs = st.builds(
    KernelSpec,
    name=st.sampled_from(["k0", "k1", "halo_pack_f_0m", "halo_pack_g_0m"]),
    category=st.sampled_from(list(LoopCategory)),
    reads=st.lists(st.sampled_from(ARRAYS), max_size=2, unique=True).map(tuple),
    writes=st.lists(st.sampled_from(ARRAYS), max_size=1).map(tuple),
    # few values, so kernels of different categories or tags often move
    # the same bytes at the same intensity
    flops_per_byte=st.sampled_from([0.0, 0.125, 0.5]),
    work_fraction=st.sampled_from([1.0, 0.5]),
    bytes_override=st.sampled_from([None, None, 4.0 * MiB, 64.0 * MiB]),
    tags=st.sampled_from([frozenset(), frozenset({"mpi_pack"})]),
)

#: A launch, or the registration of another array (moves the window).
events = st.lists(
    st.one_of(specs, st.integers(16, 512).map(lambda mib: mib * MiB)),
    min_size=1, max_size=16,
)


def hexed(lowered) -> tuple:
    """A lowered launch's price field by field, floats in hex, with the
    counted category and which of the rank's engines charges it."""
    engine, priced, category = lowered
    values = []
    for f in fields(priced):
        value = getattr(priced, f.name)
        values.append(value.hex() if isinstance(value, float) else value)
    return tuple(values), category, engine.async_launch, engine.admit is None


def fresh(version: str, registered: list, spec: KernelSpec):
    """``spec`` lowered alone on a rank with an empty memo, or the refusal."""
    rt = make_runtime(version, registered)
    try:
        return hexed(rt._lower(spec, spec.category))
    except UnsupportedLoopError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(version=st.sampled_from(VERSIONS), events=events)
def test_shared_numbers_equal_a_fresh_derivation(version, events):
    registered = [(name, (i + 1) * 8 * MiB) for i, name in enumerate(ARRAYS)]
    rt = make_runtime(version, registered)
    for event in events:
        if not isinstance(event, KernelSpec):
            registered.append((f"late{len(registered)}", event))
            rt.register_arrays(registered[-1:])
            continue
        try:
            lowered = rt._lower(event, event.category)
        except UnsupportedLoopError as e:
            assert fresh(version, registered, event) == str(e)
            continue
        assert hexed(lowered) == fresh(version, registered, event)
        # lowering twice gives the same entry
        again = rt._lower(event, event.category)
        assert again[1] is lowered[1] and again == lowered


def test_kernels_differing_in_names_share_numbers_not_prices():
    """The fields of one halo face: one derivation of the seconds, one
    price per kernel (``priced_kernels`` counts prices)."""
    rt = make_runtime("A", [("f", 8 * MiB), ("g", 8 * MiB)])
    tags = frozenset({"mpi_pack"})
    packs = [KernelSpec(f"halo_pack_{f}_0m", reads=(f,), tags=tags, bytes_override=2.0 * MiB)
             for f in ("f", "g")]
    a, b = (rt._lower(spec, LoopCategory.PLAIN)[1] for spec in packs)
    assert (a.label, b.label) == ("halo_pack_f_0m", "halo_pack_g_0m")
    assert (a.body_seconds, a.gap_seconds) == (b.body_seconds, b.gap_seconds)
    assert rt.priced_kernels == 2
    assert len(rt._acc._memo.numbers) == 1
