"""Codes 2 and 4: OpenACC parallel regions become ``do concurrent``.

One pass serves both loop-conversion stages; they differ in the verdicts
they want. ``F2018`` regions become plain DC loops (Listing 1 -> 2) and
everything else stays OpenACC (SIV-B: Fortran 2018 DC has no ``reduce``
clause). ``F202X`` regions become DC with a ``reduce`` clause or with
their atomics kept (SIV-D, Listing 4), after which nothing is async and
the derived-type data lines and legacy transfer paths go too.

Who decides a region's verdict is the caller's business: the hand-built
pipeline reads it off the region's directives (``EXPECTED_SAFETY``), the
auto-porter asks the dependence core (``region_port_safety``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from repro.fortran.parser import (
    LineScan, ParallelRegion, PortSafety, apply_edits, find_parallel_regions,
)
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms.base import TransformPass, convert_nest_to_dc
from repro.fortran.transforms.dc2x import (
    async_and_dtype_data_edits,
    convert_region_dc2x,
    drop_legacy_paths,
    reduce_clause_of,
)

#: The verdicts each loop-conversion stage converts.
F2018 = frozenset({PortSafety.SAFE_F2018})
F202X = frozenset({PortSafety.NEEDS_REDUCE, PortSafety.NEEDS_ATOMIC})

Verdict = Callable[[SourceFile, ParallelRegion], PortSafety]


@dataclass(frozen=True, slots=True)
class RefusedRegion:
    """One parallel region the pass declined to convert."""

    file: str
    line: int  # 1-based line of the region's first directive
    kind: str
    reason: str

    def render(self) -> str:
        return f"{self.file}:{self.line} [{self.kind}] {self.reason}"


def region_replacement(f: SourceFile, region: ParallelRegion, safety: PortSafety) -> list[str]:
    """The DC text that replaces ``region``, given what it needs."""
    if safety is PortSafety.SAFE_F2018:
        replacement: list[str] = []
        for nest in region.loops:
            replacement.extend(convert_nest_to_dc(region, nest))
        return replacement
    clause = reduce_clause_of(f, region) if safety is PortSafety.NEEDS_REDUCE else ""
    return convert_region_dc2x(f, region, clause=clause)


class ConvertRegionsPass(TransformPass):
    """Convert every region whose verdict is in ``safeties``.

    UNSAFE regions and wanted regions without a loop nest are never
    converted; they are recorded in ``refused`` and left as OpenACC (the
    caller decides whether that is fatal).
    """

    def __init__(self, safeties: frozenset[PortSafety], verdict: Verdict) -> None:
        self.safeties = safeties
        self.verdict = verdict
        self.converted: Counter[PortSafety] = Counter()
        self.refused: list[RefusedRegion] = []

    def _refuse(self, f: SourceFile, region: ParallelRegion, reason: str) -> None:
        self.refused.append(RefusedRegion(
            file=f.name, line=region.start + 1,
            kind=region.kind.name.lower(), reason=reason,
        ))

    def apply(self, cb: Codebase) -> None:
        # 202X stage: nothing is async any more, the derived-type data
        # lines go with the loops that touched the types
        cleanup = self.safeties == F202X
        for f in cb.files:
            scan = LineScan(f.lines)  # the regions and the cleanup read the same lines
            edits: list[tuple[int, int, list[str]]] = []
            for region in find_parallel_regions(f, scan):
                safety = self.verdict(f, region)
                if safety is PortSafety.UNSAFE:
                    self._refuse(f, region, "dependence core proves a loop-carried hazard")
                elif safety not in self.safeties:
                    continue
                elif not region.loops:
                    self._refuse(f, region, "parallel region without a loop nest")
                else:
                    replacement = region_replacement(f, region, safety)
                    edits.append((region.start, region.end, replacement))
                    self.converted[safety] += 1
            if cleanup:
                edits.extend(async_and_dtype_data_edits(f, scan))
            apply_edits(f, edits)
            if cleanup:
                drop_legacy_paths(f)
