"""Porting-cost estimation (``repro lint --cost``).

Answers the question the paper's Section 4 answers for MAS -- *how much
work is this port?* -- for any tree the front end can lower: every
OpenACC parallel region is bucketed by the dependence core's
:class:`~repro.analysis.fortran_lint.PortSafety` verdict, with region
and directive line counts per bucket, plus a projected Table-I-style
census of what ``repro port --to dc`` would leave behind (convertible
regions lose their directives; UNSAFE regions keep them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.fortran_lint import PortSafety, region_port_safety
from repro.fortran.metrics import measure
from repro.fortran.parser import LineScan, find_parallel_regions
from repro.fortran.source import Codebase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.interproc import InterprocResult
    from repro.fortran.frontend.lower import ParseCensus

#: Stable report order for the safety classes.
_BUCKET_ORDER = (
    PortSafety.SAFE_F2018,
    PortSafety.NEEDS_REDUCE,
    PortSafety.NEEDS_ATOMIC,
    PortSafety.UNSAFE,
)

#: What each verdict costs, for the human summary line.
_BUCKET_NOTE = {
    PortSafety.SAFE_F2018: "mechanical: plain do concurrent",
    PortSafety.NEEDS_REDUCE: "needs F202x reduce() clauses",
    PortSafety.NEEDS_ATOMIC: "needs atomics kept or loops flipped",
    PortSafety.UNSAFE: "do not port: loop-carried hazard",
}


@dataclass(slots=True)
class CostBucket:
    """All regions sharing one analyzer verdict."""

    safety: PortSafety
    regions: int = 0
    loc: int = 0              # region body lines, inclusive of delimiters
    directive_lines: int = 0  # !$acc lines inside those regions
    sites: list[tuple[str, int]] = field(default_factory=list)  # (file, 1-based)


@dataclass(slots=True)
class CostReport:
    """The full porting-cost picture for one tree."""

    name: str
    buckets: dict[PortSafety, CostBucket]
    total_lines: int
    acc_lines: int
    dc_loops: int
    skipped_regions: int = 0  # regions the structural parser lost anyway
    census: "ParseCensus | None" = None
    summarized_procedures: int = 0  # call-graph summaries backing the verdicts
    call_blocked_regions: int = 0   # regions UNSAFE only due to callee effects

    @property
    def convertible_directive_lines(self) -> int:
        return sum(
            b.directive_lines for s, b in self.buckets.items()
            if s is not PortSafety.UNSAFE
        )

    @property
    def projected_acc_lines(self) -> int:
        """Directive lines left after ``port --to dc`` converts what it can."""
        return max(0, self.acc_lines - self.convertible_directive_lines)

    def render(self) -> str:
        """Byte-stable text report (CI gates on exact equality)."""
        out = [f"porting-cost report: {self.name}"]
        out.append(
            f"{'safety class':<14}  {'regions':>7}  {'loc':>6}  "
            f"{'acc-lines':>9}  note"
        )
        for safety in _BUCKET_ORDER:
            b = self.buckets[safety]
            out.append(
                f"{safety.value:<14}  {b.regions:>7}  {b.loc:>6}  "
                f"{b.directive_lines:>9}  {_BUCKET_NOTE[safety]}"
            )
        total_regions = sum(b.regions for b in self.buckets.values())
        out.append(
            f"{'total':<14}  {total_regions:>7}  "
            f"{sum(b.loc for b in self.buckets.values()):>6}  "
            f"{sum(b.directive_lines for b in self.buckets.values()):>9}"
        )
        if self.skipped_regions:
            out.append(f"(+ {self.skipped_regions} regions skipped by the parser)")
        unsafe = self.buckets[PortSafety.UNSAFE]
        out.append(
            f"tree: {self.total_lines} lines, {self.acc_lines} !$acc lines, "
            f"{self.dc_loops} do concurrent loops"
        )
        out.append(
            f"interprocedural: {self.summarized_procedures} procedure "
            f"summaries, {self.call_blocked_regions} regions blocked by "
            f"callee side effects"
        )
        out.append(
            f"projected after port --to dc: {self.projected_acc_lines} !$acc "
            f"lines remain ({self.convertible_directive_lines} removed from "
            f"{total_regions - unsafe.regions} convertible regions, "
            f"{unsafe.regions} unsafe regions keep theirs)"
        )
        if self.census is not None:
            out.append(
                f"front-end parse census: {self.census.total_lines} lines, "
                f"{self.census.opaque_lines} opaque, coverage "
                f"{self.census.coverage:.4f}"
            )
        return "\n".join(out)


def estimate_cost(
    cb: Codebase,
    *,
    census: "ParseCensus | None" = None,
    interproc: "InterprocResult | None" = None,
) -> CostReport:
    """Bucket every parallel region of ``cb`` by its porting verdict.

    Tolerant by construction: a file or region the structural parser
    cannot hold is counted in ``skipped_regions`` rather than raised --
    on front-end-lowered trees this stays zero.

    Calls are priced by their callee's side-effect summary rather than
    pessimistically: ``interproc`` (computed here when not passed in)
    moves a region to UNSAFE only when a call site provably blocks the
    port (impure callee or module-variable write), and leaves regions
    calling pure or unresolvable routines in their dependence bucket.
    """
    from repro.analysis.interproc import region_call_blockers, summarize

    ip = interproc if interproc is not None else summarize(cb)
    buckets = {s: CostBucket(safety=s) for s in _BUCKET_ORDER}
    skipped = 0
    call_blocked = 0
    for f in cb.files:
        try:
            regions = find_parallel_regions(f)
        except ValueError:
            skipped += 1
            continue
        for region in regions:
            try:
                safety = region_port_safety(f, region)
            except (ValueError, IndexError):
                skipped += 1
                continue
            if safety is not PortSafety.UNSAFE and region_call_blockers(
                f, region, ip
            ):
                safety = PortSafety.UNSAFE
                call_blocked += 1
            b = buckets[safety]
            b.regions += 1
            b.loc += region.end - region.start + 1
            b.directive_lines += len(region.directive_lines)
            b.sites.append((f.name, region.start + 1))
    met = measure(cb)
    dc_loops = sum(len(LineScan(f.lines).dc_headers) for f in cb.files)
    return CostReport(
        name=cb.name,
        buckets=buckets,
        total_lines=met.total_lines,
        acc_lines=met.acc_lines,
        dc_loops=dc_loops,
        skipped_regions=skipped,
        census=census,
        summarized_procedures=len(ip.summaries),
        call_blocked_regions=call_blocked,
    )
