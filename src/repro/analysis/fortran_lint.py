"""Static DC-safety lint over the Fortran subset the transforms rewrite.

Three layers of checks, all producing :class:`~repro.analysis.findings.Finding`.
The first two read one file each and are computed on its fact sheet
(:mod:`repro.analysis.facts`); this module joins the sheets:

1. **Loop units** (``DC0xx``): every OpenACC parallel region's loop nests
   and every free-standing ``do concurrent`` loop is run through the
   shared dependence core (:func:`repro.analysis.dependence.analyze_loop_body`)
   to find loop-carried dependences, undeclared reductions, unprotected
   shared writes, scalars needing privatization, and indirect writes whose
   safety is unprovable.
2. **Directive hygiene** (``ACC1xx``): orphan region ends, stray
   continuation lines, waits naming async queues nothing launches on.
3. **Data-region coverage** (``UM2xx``): in a manually-managed codebase
   (one using ``enter data``), arrays that exit/update-host without ever
   being entered, and device regions touching arrays the data directives
   manage elsewhere but never entered here -- the implicit-UM-traffic risk
   behind the paper's Fig. 4 pathology.

:func:`region_port_safety` distills a region's loop reports into the
port/don't-port vocabulary the transform pipelines use, so tests can
assert the transforms and the analyzer agree on every region.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from repro.analysis.facts import (
    _REDUCTION_CLAUSE_RE,
    FileFacts,
    LoopUnit as LoopUnit,  # re-exported: the unit the verdicts below read
    _region_clause_vars,
    _region_units,
    file_facts,
)
from repro.analysis.findings import Finding
from repro.fortran.parser import (
    EXPECTED_SAFETY as EXPECTED_SAFETY,  # re-exported: the verdict contract
    ParallelRegion,
    PortSafety,
)
from repro.fortran.source import Codebase, SourceFile


@dataclass(frozen=True, slots=True)
class LintConfig:
    """What to check and what to keep quiet about."""

    disabled_rules: frozenset[str] = frozenset()
    #: ``(rule_id, file_glob)`` pairs; matching findings are dropped.
    suppressions: tuple[tuple[str, str], ...] = ()

    def allows(self, finding: Finding) -> bool:
        if finding.rule_id in self.disabled_rules:
            return False
        for rule_id, pattern in self.suppressions:
            if rule_id == finding.rule_id and fnmatch.fnmatch(finding.file, pattern):
                return False
        return True


def _coverage_findings(sheets: list[FileFacts]) -> list[Finding]:
    """UM201/202/203 over the whole codebase, joined from its sheets in
    file order (the first exit or update-host site of an array wins)."""
    entered: set[str] = set()  # enter data / declare / entering clauses
    exited: dict[str, tuple[str, int]] = {}
    updated_host: dict[str, tuple[str, int]] = {}
    manual_mode = False  # any enter data anywhere
    for sheet in sheets:
        frag = sheet.checked().coverage
        entered |= frag.entered
        for a, i in frag.exited:
            exited.setdefault(a, (sheet.name, i))
        for a, i in frag.updated_host:
            updated_host.setdefault(a, (sheet.name, i))
        manual_mode |= frag.manual_mode
    out = []
    if not manual_mode:
        return out  # UM-managed build: coverage rules don't apply
    for a, (fname, i) in sorted(exited.items()):
        if a not in entered:
            out.append(
                Finding("UM202", fname, i + 1,
                        f"{a} exits a data region it never entered",
                        context=a)
            )
    for a, (fname, i) in sorted(updated_host.items()):
        if a not in entered:
            out.append(
                Finding("UM203", fname, i + 1,
                        f"update host({a}) but {a} was never entered",
                        context=a)
            )
    # region accesses of arrays the data directives manage elsewhere (every
    # array any data directive names)
    universe = entered | set(exited) | set(updated_host)
    for sheet in sheets:
        for header_line, touched in sheet.checked().region_names:
            for name in sorted(touched & universe):
                if name not in entered:
                    out.append(
                        Finding(
                            "UM201", sheet.name, header_line + 1,
                            f"device region touches {name}, which no "
                            "enter data/declare covers: implicit UM "
                            "paging risk",
                            context=name,
                        )
                    )
    return out


def analyze_codebase(cb: Codebase, config: LintConfig | None = None) -> list[Finding]:
    """Every finding in a codebase, suppressions applied, telemetry bumped.

    Each file is digested once and its fact sheet (:mod:`repro.analysis.facts`)
    looked up or computed; the per-file findings come off the sheets, and
    coverage and the interprocedural pass (call-graph summaries, IP1xx
    rules) are joined from them fresh. :func:`sort_findings` imposes one
    total order on the result.
    """
    from repro.analysis.findings import record_findings, sort_findings
    from repro.analysis.interproc import interproc_findings, summarize

    config = config or LintConfig()
    sheets = [file_facts(file) for file in cb.files]
    out = [f for sheet in sheets for f in sheet.checked().findings]
    out.extend(_coverage_findings(sheets))
    out.extend(interproc_findings(cb, summarize(cb, facts=sheets)))
    kept = sort_findings(f for f in out if config.allows(f))
    record_findings(kept, source=cb.name)
    return kept


# -- transform agreement -------------------------------------------------------


def region_port_safety(file: SourceFile, region: ParallelRegion) -> PortSafety:
    """The analyzer's verdict on porting one OpenACC region to DC.

    Mirrors the SIV taxonomy the transforms use: ``RegionKind`` says what
    the region *is*; this says what the dependence core *proves* it needs.
    """
    units = _region_units(file, region)
    reports = [u.analyze() for u in units]
    if any(r.carried or r.shared_writes for r in reports):
        return PortSafety.UNSAFE
    if any(r.undeclared_reductions for r in reports):
        return PortSafety.NEEDS_ATOMIC  # scalar races with no clause: restructure
    if any(r.atomic_protected or r.indirect_writes for r in reports):
        return PortSafety.NEEDS_ATOMIC
    declared = _region_clause_vars(file, region, _REDUCTION_CLAUSE_RE)
    if declared:
        return PortSafety.NEEDS_REDUCE
    return PortSafety.SAFE_F2018


def region_undeclared_reductions(
    file: SourceFile, region: ParallelRegion
) -> list[str]:
    """Scalars accumulated in ``region`` with no reduction clause.

    These make the verdict ``NEEDS_ATOMIC``, but unlike atomic-protected
    bodies they cannot be ported mechanically (the original OpenACC is
    already racy); the porter refuses such files and points at the DC002
    fix-it, which adds the missing ``reduction`` clause.
    """
    out: set[str] = set()
    for u in _region_units(file, region):
        rep = u.analyze()
        out.update(s.scalar for s in rep.undeclared_reductions)
    return sorted(out)
