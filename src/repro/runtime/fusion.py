"""OpenACC kernel-fusion plans.

Inside one ``!$acc parallel`` region, data-independent loops can be compiled
into a single GPU kernel ("kernel fusion", SIV-B). Converting such loops to
``do concurrent`` forces one kernel per loop ("kernel fission"), multiplying
launch overheads. The dependence analysis itself lives in the shared core
(:mod:`repro.analysis.dependence`); loops fuse greedily until a data
dependence (RAW/WAR/WAW on logical arrays) stops the group. The dispatcher
buffers a region's (or a cross-region window's) launches and plans them
here when it flushes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.dependence import depends, hazards_between
from repro.runtime.kernel import KernelSpec


@dataclass(frozen=True, slots=True)
class FusionGroup:
    """A maximal fusable run of kernels, launched as one GPU kernel."""

    kernels: tuple[KernelSpec, ...]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("a fusion group cannot be empty")

    @property
    def size(self) -> int:
        """Number of source loops fused into this launch."""
        return len(self.kernels)

    @property
    def name(self) -> str:
        """Display name: first kernel, annotated when fused."""
        if self.size == 1:
            return self.kernels[0].name
        return f"{self.kernels[0].name}+{self.size - 1}"


def plan_fusion(kernels: Sequence[KernelSpec], *, enabled: bool) -> list[FusionGroup]:
    """Partition a region's kernels into launch groups.

    With fusion disabled (or for a DC backend) every kernel is its own
    group. With fusion enabled, consecutive kernels join the current group
    unless they depend on *any* kernel already in it.
    """
    if not enabled:
        return [FusionGroup((k,)) for k in kernels]
    groups: list[FusionGroup] = []
    current: list[KernelSpec] = []
    for k in kernels:
        if current and any(
            depends(prev.reads, prev.writes, k.reads, k.writes)
            for prev in current
        ):
            groups.append(FusionGroup(tuple(current)))
            current = [k]
        else:
            current.append(k)
    if current:
        groups.append(FusionGroup(tuple(current)))
    return groups


def plan_fusion_window(kernels: Sequence[KernelSpec]) -> list[FusionGroup]:
    """Cross-region fusion plan for a window between synchronization points.

    Unlike :func:`plan_fusion` (which only merges *consecutive* kernels,
    matching what one ``!$acc parallel`` region can express), the window
    planner may hoist a kernel backwards past groups it is independent of:
    a kernel joins the earliest group such that it carries no hazard with
    any kernel in that group *or any later group*. Because name-based
    hazard sets are symmetric, that one-direction check is sufficient for
    both fusion legality and order preservation. Bodies are unaffected --
    they already ran eagerly at dispatch; only launch cost is re-planned.
    """
    groups: list[list[KernelSpec]] = []
    for k in kernels:
        placed: int | None = None
        for i in range(len(groups) - 1, -1, -1):
            if any(
                depends(prev.reads, prev.writes, k.reads, k.writes)
                for prev in groups[i]
            ):
                break
            placed = i
        if placed is None:
            groups.append([k])
        else:
            groups[placed].append(k)
    return [FusionGroup(tuple(g)) for g in groups]


def validate_plan(
    original: Sequence[KernelSpec], groups: Sequence[FusionGroup]
) -> list[str]:
    """Check a fusion plan against the shared dependence core.

    Returns human-readable violations (empty list = valid plan):

    * every original kernel appears in the plan exactly as often as it was
      launched (a replayed step plan launches one interned spec object many
      times; equal launches are interchangeable);
    * no group fuses two kernels with a RAW/WAR/WAW hazard between them;
    * every hazard-ordered pair of the original sequence stays ordered
      (the earlier kernel's group launches strictly before the later's).
    """
    violations: list[str] = []
    launched = Counter(id(k) for k in original)
    groups_of: dict[int, list[int]] = {}  # object -> its groups, in launch order
    for gi, g in enumerate(groups):
        for k in g.kernels:
            at = groups_of.setdefault(id(k), [])
            at.append(gi)
            if len(at) > launched[id(k)]:
                violations.append(f"kernel {k.name!r} appears twice in the plan")
    for k in original:
        if len(groups_of.get(id(k), ())) < launched[id(k)]:
            violations.append(f"kernel {k.name!r} missing from the plan")
    if violations:
        return violations  # membership broken; ordering checks meaningless
    # the n-th launch of an object sits in the n-th of its groups
    group_of = [groups_of[id(k)].pop(0) for k in original]
    for i, a in enumerate(original):
        for j, b in enumerate(original[i + 1:], i + 1):
            hz = hazards_between(a.reads, a.writes, b.reads, b.writes)
            if not hz:
                continue
            kinds = "/".join(sorted(h.name for h in hz))
            if group_of[i] == group_of[j]:
                violations.append(
                    f"{kinds} hazard between {a.name!r} and {b.name!r} "
                    "fused into one group"
                )
            elif group_of[i] > group_of[j]:
                violations.append(
                    f"{kinds} hazard: {b.name!r} reordered before {a.name!r}"
                )
    return violations

