"""Reduction collectives over simulated ranks.

MAS's implicit solvers (PCG for viscosity, SIV/Fig. 4) and its CFL timestep
control need global dot products and minima. These are tiny messages, so
the cost is latency-dominated: ``ceil(log2(n))`` butterfly rounds of the
link latency, plus (under UM) a host synchronization because the reduction
scratch lives in managed memory.

Because the cost is latency-dominated, fusing k scalar reductions into one
vector-valued :func:`allreduce_many` charges one butterfly of ``8 * k``
bytes instead of k separate latencies -- the mechanism behind the
communication-avoiding PCG variant.  The
:func:`allreduce_many_begin` / :func:`allreduce_many_finish` pair is the
``MPI_Iallreduce`` analog: the reduction completes a fixed cost after the
last rank posts its contribution, and ranks only pay at *finish* for
whatever the intervening compute did not hide (pipelined PCG).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.machine.spec import LinkSpec
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import TimeCategory
from repro.runtime.dispatcher import RankRuntime

#: Host-side overhead per collective when buffers are UM-managed.
UM_COLLECTIVE_OVERHEAD = 25e-6


def _observe_collective(op: str) -> None:
    """Count one allreduce (PCG dots and CFL minima dominate these)."""
    tel = _telemetry()
    if tel.enabled:
        tel.metrics.counter(
            "allreduce_total", "MPI allreduces issued, by reduction op",
            labelnames=("op",),
        ).labels(op=op).inc()


def _observe_cost(op: str, seconds: float) -> None:
    """Accumulate per-rank seconds charged to one collective's transfer."""
    tel = _telemetry()
    if tel.enabled and seconds > 0.0:
        tel.metrics.counter(
            "allreduce_seconds_total",
            "per-rank seconds charged to allreduce transfers, by reduction op",
            labelnames=("op",),
        ).labels(op=op).inc(seconds)


def _collective_cost(
    n_ranks: int, nbytes: int, link: LinkSpec, *, unified_memory: bool
) -> float:
    """Per-rank wall time of one small allreduce."""
    if n_ranks == 1:
        # Even a 1-rank MPI_Allreduce is a library call with nonzero cost.
        base = link.latency
    else:
        rounds = math.ceil(math.log2(n_ranks))
        base = rounds * link.transfer_time(nbytes)
    if unified_memory:
        base += UM_COLLECTIVE_OVERHEAD
    return base


def barrier(ranks: Sequence[RankRuntime], label: str = "barrier") -> float:
    """Synchronize all rank clocks; returns the synchronized time."""
    for rt in ranks:
        rt.sync()  # flush buffered launches before comparing clocks
    t_max = max(rt.clock.now for rt in ranks)
    for rt in ranks:
        rt.clock.wait_until(t_max, TimeCategory.MPI_WAIT, label)
    return t_max


Values = Sequence[float | np.ndarray]


def _blocking_allreduce(
    op: str,
    fold: Callable[[Values], float | np.ndarray],
    ranks: Sequence[RankRuntime],
    values: Values,
    link: LinkSpec,
    nbytes: int,
    unified_memory: bool,
) -> float | np.ndarray:
    """One blocking scalar-fold allreduce: every rank contributes a value
    (or an equal-shape array, folded elementwise in the same message),
    every rank gets ``fold(values)`` after a barrier and one butterfly."""
    if len(values) != len(ranks):
        raise ValueError("one value per rank required")
    _observe_collective(op)
    barrier(ranks, "allreduce")
    result = fold(values)
    cost = _collective_cost(len(ranks), nbytes, link, unified_memory=unified_memory)
    _observe_cost(op, cost)
    label = f"allreduce_{op}"
    for rt in ranks:
        rt.clock.advance(cost, TimeCategory.MPI_TRANSFER, label)
    return result


def _sum(values: Values) -> float | np.ndarray:
    total = values[0]
    for v in values[1:]:  # left to right, as the ranks are numbered
        total = total + v
    return total


def _extremum(ufunc: np.ufunc, scalar: Callable, values: Values) -> float | np.ndarray:
    if any(isinstance(v, np.ndarray) for v in values):
        return ufunc.reduce([np.asarray(v, dtype=float) for v in values])
    return scalar(values)


def allreduce_sum(
    ranks: Sequence[RankRuntime], values: Values, link: LinkSpec,
    *, nbytes: int = 8, unified_memory: bool = False,
) -> float | np.ndarray:
    """MPI_Allreduce(SUM): every rank contributes, every rank gets the sum."""
    return _blocking_allreduce("sum", _sum, ranks, values, link, nbytes, unified_memory)


def allreduce_min(
    ranks: Sequence[RankRuntime], values: Values, link: LinkSpec,
    *, nbytes: int = 8, unified_memory: bool = False,
) -> float | np.ndarray:
    """MPI_Allreduce(MIN), used by the CFL timestep controller.

    Array-valued contributions (one per rank, equal shapes -- e.g. the
    per-ensemble-member CFL limits) reduce elementwise in one collective,
    like a vector MPI_Allreduce(MIN); pass ``nbytes=8*k`` to charge the
    wider message.
    """
    fold = partial(_extremum, np.minimum, min)
    return _blocking_allreduce("min", fold, ranks, values, link, nbytes, unified_memory)


def _sum_vectors(vectors: Sequence[Sequence[float] | np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-length per-rank contribution vectors."""
    total = np.array(vectors[0], dtype=float, copy=True)
    for v in vectors[1:]:
        arr = np.asarray(v, dtype=float)
        if arr.shape != total.shape:
            raise ValueError("every rank must contribute the same value count")
        total += arr
    return total


def allreduce_many(
    ranks: Sequence[RankRuntime],
    vectors: Sequence[Sequence[float] | np.ndarray],
    link: LinkSpec,
    *,
    nbytes: int | None = None,
    unified_memory: bool = False,
) -> np.ndarray:
    """Vector-valued MPI_Allreduce(SUM): k scalars reduced in ONE message.

    Every rank contributes a length-k vector; every rank receives the
    elementwise sum.  The cost model charges a single butterfly of
    ``8 * k`` bytes -- one latency -- instead of the k latencies that k
    separate :func:`allreduce_sum` calls would pay.  This is the batched
    reduction the communication-avoiding PCG fuses its per-iteration dot
    products into.
    """
    if len(vectors) != len(ranks):
        raise ValueError("one vector per rank required")
    total = _sum_vectors(vectors)
    _observe_collective("sum_many")
    barrier(ranks, "allreduce_many")
    cost = _collective_cost(
        len(ranks),
        nbytes if nbytes is not None else 8 * total.size,
        link,
        unified_memory=unified_memory,
    )
    _observe_cost("sum_many", cost)
    for rt in ranks:
        rt.clock.advance(cost, TimeCategory.MPI_TRANSFER, "allreduce_many")
    return total


@dataclass(slots=True)
class PendingReduction:
    """An in-flight nonblocking fused allreduce (MPI_Iallreduce analog).

    The reduction result is available ``cost`` seconds after ``t_start``
    (the moment the slowest rank posted its contribution); ranks charge
    only the *unhidden* remainder of that window when they finish.
    """

    ranks: list[RankRuntime]
    total: np.ndarray
    cost: float
    t_start: float
    done: bool = False


def allreduce_many_begin(
    ranks: Sequence[RankRuntime],
    vectors: Sequence[Sequence[float] | np.ndarray],
    link: LinkSpec,
    *,
    nbytes: int | None = None,
    unified_memory: bool = False,
) -> PendingReduction:
    """Post a nonblocking fused allreduce; charges nothing now.

    Unlike the blocking form there is no entry barrier: the reduction
    simply cannot complete earlier than ``cost`` seconds after the last
    rank's clock at post time.  Compute issued between ``begin`` and
    ``finish`` (the pipelined-PCG matvec) hides the collective.
    """
    if len(vectors) != len(ranks):
        raise ValueError("one vector per rank required")
    total = _sum_vectors(vectors)
    _observe_collective("sum_many")
    cost = _collective_cost(
        len(ranks),
        nbytes if nbytes is not None else 8 * total.size,
        link,
        unified_memory=unified_memory,
    )
    for rt in ranks:
        rt.sync()  # posted contributions include buffered launches
    t_start = max(rt.clock.now for rt in ranks)
    return PendingReduction(
        ranks=list(ranks), total=total, cost=cost, t_start=t_start
    )


def allreduce_many_finish(pending: PendingReduction) -> np.ndarray:
    """Complete a nonblocking fused allreduce; returns the summed vector.

    Each rank waits only until ``t_start + cost``; a rank whose clock
    already passed that moment (because the overlapped compute was longer
    than the collective) pays nothing.
    """
    if pending.done:
        raise ValueError("reduction already finished")
    pending.done = True
    t_done = pending.t_start + pending.cost
    paid = 0.0
    for rt in pending.ranks:
        rt.sync()
        paid += max(0.0, t_done - rt.clock.now) / len(pending.ranks)
        rt.clock.wait_until(
            t_done, TimeCategory.MPI_TRANSFER, "allreduce_many_wait"
        )
    _observe_cost("sum_many", paid)
    return pending.total


def allreduce_max(
    ranks: Sequence[RankRuntime], values: Values, link: LinkSpec,
    *, nbytes: int = 8, unified_memory: bool = False,
) -> float | np.ndarray:
    """MPI_Allreduce(MAX).

    Like :func:`allreduce_min`, per-rank array contributions (one value
    per member) reduce elementwise in a single collective.
    """
    fold = partial(_extremum, np.maximum, max)
    return _blocking_allreduce("max", fold, ranks, values, link, nbytes, unified_memory)
