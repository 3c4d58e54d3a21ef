"""Launch pricing as a memoised pure function.

The kernel stream of a step is fixed by construction (DESIGN.md S5), so a
rank launches the same few hundred distinct kernels over and over. What a
launch of one of them costs -- body seconds, launch gap, clock categories,
labels, which managed arrays it touches -- depends only on the kernel's
cost fields (:attr:`KernelSpec.cost_key`), on the engine's fixed settings
and on two things that can move: the data environment (sizes, presence)
and the rank's working set (the locality boost). Each engine derives a
:class:`PricedLaunch` once per kernel and keeps it in a :class:`PriceMemo`
until either of those moves; a launch then does only what is stateful
(:meth:`~repro.runtime.engine.Engine.charge`). A price is numbers plus
names, and the numbers (body and gap seconds) follow from four of the
kernel's values alone, so the memo derives them once per set of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.kernel import KernelSpec

if TYPE_CHECKING:
    from repro.runtime.data_env import DataEnvironment


@dataclass(frozen=True, slots=True)
class PricedLaunch:
    """One kernel's price. Holds numbers and names only: no spec, no body,
    no array, so a memo entry keeps nothing of the launch alive."""

    label: str
    launch_label: str
    #: Device-busy seconds of the body (``KernelCostModel.body_time``);
    #: fused launches sum these.
    body_seconds: float
    #: Launch gap when the kernel is launched on its own; None for a loop
    #: the CPU runs, which is never launched.
    gap_seconds: float | None
    #: COMPUTE, or MPI_PACK for halo buffer kernels.
    body_category: TimeCategory
    #: Where this kernel's page faults are charged: UM_FAULT, or
    #: MPI_TRANSFER for halo buffer kernels (buffer loading/unloading is
    #: MPI time in Fig. 3).
    fault_category: TimeCategory
    #: Managed arrays touched on every launch: ``(array, bytes, label)``.
    touches: tuple[tuple[str, int, str], ...]
    #: Nominal traffic and flops, the roofline counters' inputs.
    nbytes: float
    flops: float


def priced_launch(
    spec: KernelSpec,
    touches: tuple[tuple[str, int], ...],
    *,
    body_seconds: float,
    gap_seconds: float | None,
    nbytes: float,
) -> PricedLaunch:
    """Assemble a price from what the engine computed (``touches`` from
    ``DataEnvironment.kernel_touches``) and what follows from the spec.

    Refuses seconds that are not finite and non-negative: a launch charged
    from a held price skips ``SimClock.advance``'s own check.
    """
    for seconds in (body_seconds, gap_seconds):
        if seconds is not None and not 0.0 <= seconds < math.inf:
            raise ValueError(
                f"kernel {spec.name!r} priced at {seconds} s: "
                "a price must be finite and non-negative"
            )
    pack = "mpi_pack" in spec.tags
    return PricedLaunch(
        label=spec.name,
        launch_label=f"launch({spec.name})",
        body_seconds=body_seconds,
        gap_seconds=gap_seconds,
        body_category=TimeCategory.MPI_PACK if pack else TimeCategory.COMPUTE,
        fault_category=TimeCategory.MPI_TRANSFER if pack else TimeCategory.UM_FAULT,
        touches=tuple((name, n, f"fault_in({name})") for name, n in touches),
        nbytes=nbytes,
        flops=nbytes * spec.flops_per_byte,
    )


class PriceMemo:
    """Priced launches by cost key, valid for one (data-environment epoch,
    working set) pair and dropped as a whole when that pair moves. A live
    launch and a replayed one are priced from the same memo.
    :attr:`numbers` holds, for the same window, the seconds of each (bytes,
    flops per byte, category, ``mpi_pack`` tag) an engine derived."""

    __slots__ = ("_epoch", "_working_set", "_entries", "numbers")

    def __init__(self) -> None:
        self._epoch: int | None = None
        self._working_set: float | None = None
        self._entries: dict = {}
        self.numbers: dict = {}

    def entries(self, epoch: int, working_set_bytes: float | None) -> dict:
        """The entries still valid for this epoch and working set."""
        if epoch != self._epoch or working_set_bytes != self._working_set:
            self._epoch, self._working_set = epoch, working_set_bytes
            self._entries, self.numbers = {}, {}
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)


def fault_in(priced: PricedLaunch, clock: SimClock, env: "DataEnvironment") -> None:
    """Managed pages of the arrays ``priced`` touches fault in, charged to
    ``clock`` (residency is state: asked on every launch)."""
    um = env.um
    for name, nbytes, label in priced.touches:
        dt = um.touch_device(name, nbytes)
        if dt > 0:
            clock.advance(dt, priced.fault_category, label)


def touch_and_observe(priced: PricedLaunch, clock: SimClock, env: "DataEnvironment") -> None:
    """The per-launch effects that precede the launch itself: managed
    pages fault in (charged to ``clock``), roofline counters tick."""
    if priced.touches:
        fault_in(priced, clock, env)
    tel = _telemetry()
    if tel.enabled:
        observe_kernel(tel.metrics, priced)


#: The per-kernel roofline counter families: name, help, label names.
_KERNEL_COUNTERS = (
    ("kernel_seconds_total", "device-busy seconds charged per kernel spec", ("category", "kernel")),
    ("kernel_bytes_total", "nominal HBM bytes moved per kernel spec", ("kernel",)),
    ("kernel_flops_total", "nominal flops per kernel spec", ("kernel",)),
    ("kernel_calls_total", "kernel body executions per kernel spec", ("kernel",)),
)


def kernel_counters(m, priced: PricedLaunch) -> tuple:
    """``priced``'s four roofline children, resolved once per kernel and kept
    in the registry (``m.bound``), never on the price."""
    key = (priced.label, priced.body_category)
    children = m.bound.get(key)
    if children is None:
        labels = {"kernel": priced.label, "category": priced.body_category.value}
        children = m.bound[key] = tuple(
            m.counter(name, text, labelnames=names).labels(**{n: labels[n] for n in names})
            for name, text, names in _KERNEL_COUNTERS
        )
    return children


def observe_kernel(m, priced: PricedLaunch) -> None:
    """Per-kernel roofline counters: seconds, bytes, flops, calls.

    Every engine (OpenACC groups, DC loops, CPU loops)
    reports here so :mod:`repro.perf.roofline` can compute each kernel's
    speed-of-light fraction from one run's metrics snapshot. The nominal
    bytes/flops are the cost model's inputs, *before* efficiency
    penalties -- which is exactly what makes the measured-vs-attainable
    ratio meaningful.
    """
    seconds, nbytes, flops, calls = kernel_counters(m, priced)
    seconds.inc(priced.body_seconds)
    nbytes.inc(priced.nbytes)
    flops.inc(priced.flops)
    calls.inc()
