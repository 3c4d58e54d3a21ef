"""Kernel abstraction shared by both runtime engines.

A :class:`KernelSpec` describes one GPU kernel: what it reads/writes (named
logical arrays with *nominal* byte sizes for the cost model) and an optional
numpy ``body`` that performs the real computation on the (possibly smaller)
actual arrays. The cost model sees paper-scale bytes; the numerics run at
test scale. See DESIGN.md S5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

from repro.analysis.dependence import base_name


class LoopCategory(enum.Enum):
    """The loop taxonomy of SIV: each category ports differently."""

    PLAIN = "plain"                          # ordinary parallel loop nest
    SCALAR_REDUCTION = "scalar_reduction"    # sum/min/max into a scalar
    ARRAY_REDUCTION = "array_reduction"      # atomic-accumulated array sums
    ATOMIC_OTHER = "atomic_other"            # non-reduction atomics
    KERNELS_REGION = "kernels_region"        # array syntax / intrinsics
    ROUTINE_CALLER = "routine_caller"        # loop calling pure routines

    #: Members are singletons, so identity hashing is the same equality and
    #: runs in C: a launch hashes its category in ``cost_key`` and in the
    #: launch counter's key, and ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


#: ``RankRuntime`` loop entry point -> the category it dispatches under.
LAUNCHES = {
    "loop": LoopCategory.PLAIN,
    "scalar_reduction": LoopCategory.SCALAR_REDUCTION,
    "array_reduction": LoopCategory.ARRAY_REDUCTION,
    "atomic_loop": LoopCategory.ATOMIC_OTHER,
    "kernels_region": LoopCategory.KERNELS_REGION,
    "routine_loop": LoopCategory.ROUTINE_CALLER,
}


@cache
def _touched_arrays(reads: tuple[str, ...], writes: tuple[str, ...]) -> tuple[str, ...]:
    """Logical arrays behind a kernel's access tokens, first touch first.

    Pure in two tuples of names, and a model has a few hundred distinct
    pairs, so each is derived once per process.
    """
    seen: dict[str, None] = {}
    for a in reads + writes:
        seen.setdefault(base_name(a))
    return tuple(seen)


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """Immutable description of one loop nest / kernel.

    ``reads``/``writes`` name logical arrays known to the rank's
    :class:`~repro.runtime.data_env.DataEnvironment`; bytes are derived from
    the environment's nominal sizes unless ``bytes_override`` is given.
    ``work_fraction`` scales array traffic for kernels that touch only a
    slice (e.g. halo packing, boundary loops).
    """

    name: str
    category: LoopCategory = LoopCategory.PLAIN
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    flops_per_byte: float = 0.125
    work_fraction: float = 1.0
    bytes_override: float | None = None
    body: Callable[[], Any] | None = field(default=None, compare=False)
    tags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("kernel needs a name")
        if not 0.0 < self.work_fraction <= 1.0:
            raise ValueError("work_fraction must be in (0, 1]")
        if self.bytes_override is not None and self.bytes_override < 0:
            raise ValueError("bytes_override cannot be negative")
        if self.flops_per_byte < 0:
            raise ValueError("flops_per_byte cannot be negative")

    @property
    def arrays(self) -> tuple[str, ...]:
        """All logical arrays touched (reads then writes, deduplicated).

        Region qualifiers (``"rho@g2m"``, see
        :mod:`repro.analysis.dependence`) are stripped: data residency and
        nominal sizing are per logical array, not per sub-region.
        """
        return _touched_arrays(self.reads, self.writes)

    @property
    def cost_key(self) -> tuple:
        """Every field that enters a launch's price, i.e. all but ``body``.

        The runtime engines memoise prices under this key; it holds no
        reference to the body or to anything the body captured.
        """
        return (
            self.name,
            self.category,
            self.reads,
            self.writes,
            self.flops_per_byte,
            self.work_fraction,
            self.bytes_override,
            self.tags,
        )

    def run_body(self) -> Any:
        """Execute the attached numpy body, if any."""
        if self.body is not None:
            return self.body()
        return None
