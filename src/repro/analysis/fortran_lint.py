"""Static DC-safety lint over the Fortran subset the transforms rewrite.

Three layers of checks, all producing :class:`~repro.analysis.findings.Finding`:

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
import re
from dataclasses import dataclass, field

from repro.analysis.dependence import LoopReport, Statement, analyze_loop_body, depends
from repro.analysis.facts import FileFacts, file_facts
from repro.analysis.findings import Finding, RelatedLocation
from repro.fortran.directives import (
    DirectiveKind,
    is_directive_line,
    parse_directive,
)
from repro.fortran.lexer import LineKind, classify_line
from repro.fortran.parser import (
    EXPECTED_SAFETY as EXPECTED_SAFETY,  # re-exported: the verdict contract
    ParallelRegion,
    PortSafety,
    find_dc_loop_end,
    split_paren_args,
)
from repro.fortran.source import Codebase, SourceFile

_REDUCTION_CLAUSE_RE = re.compile(
    r"\b(?:reduction|reduce)\s*\(\s*[^:)]+:\s*([^)]*)\)", re.I
)
_LOCAL_CLAUSE_RE = re.compile(r"\blocal\s*\(\s*([^)]*)\)", re.I)
_PRIVATE_CLAUSE_RE = re.compile(r"\bprivate\s*\(\s*([^)]*)\)", re.I)
_ASYNC_RE = re.compile(r"\basync\s*\(\s*(\w+)\s*\)", re.I)
_WAIT_RE = re.compile(r"^wait\s*(?:\(\s*([\w,\s]+)\s*\))?", re.I)
_DC_HEADER_RE = re.compile(r"^\s*do\s+concurrent\s*\(", re.I)
#: Data-directive clauses and the role they give their arrays.
_DATA_CLAUSE_RE = re.compile(
    r"\b(copyin|copyout|copy|create|delete|present|device|host|self|use_device)"
    r"\s*\(\s*([^)]*)\)",
    re.I,
)


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


@dataclass(slots=True)
class LoopUnit:
    """One analyzable parallel loop: an ACC-region nest or a DC loop."""

    file: SourceFile
    header_line: int            # 0-based line of the do / do concurrent
    indices: list[str]
    statements: list[Statement]
    reductions: list[str]
    locals_declared: list[str]
    report: LoopReport | None = field(default=None)

    def analyze(self) -> LoopReport:
        if self.report is None:
            self.report = analyze_loop_body(
                self.statements,
                self.indices,
                declared_reductions=self.reductions,
                locals_declared=self.locals_declared,
            )
        return self.report


def _clause_arrays(text: str) -> list[str]:
    """Array names from a data clause argument list (``a(:)`` -> ``a``,
    ``dt%arr`` kept whole)."""
    out = []
    for part in text.split(","):
        name = part.strip().split("(")[0].strip().lower()
        if name:
            out.append(name)
    return out


def _gather_statements(
    file: SourceFile, first: int, last: int
) -> list[Statement]:
    """Assignment-candidate statements in [first, last], with atomic flags."""
    out = []
    prev_atomic = False
    for i in range(first, last + 1):
        line = file.lines[i]
        kind = classify_line(line)
        if kind is LineKind.DIRECTIVE:
            d = parse_directive(line)
            prev_atomic = d.kind is DirectiveKind.ATOMIC
            continue
        if kind is LineKind.STATEMENT:
            out.append(Statement(line=i, text=line, protected=prev_atomic))
        prev_atomic = False
    return out


def _region_clause_vars(file: SourceFile, region: ParallelRegion, pattern: re.Pattern) -> list[str]:
    out: list[str] = []
    for i in region.directive_lines:
        for m in pattern.finditer(file.lines[i]):
            out.extend(_clause_arrays(m.group(1)))
    return out


def _dc_units(file: SourceFile) -> list[LoopUnit]:
    """Free-standing ``do concurrent`` loops as analyzable units.

    Nested DC loops become their own units too; an outer unit's statement
    list includes the inner loops' statements (its iterations race on
    them just the same).
    """
    units: list[LoopUnit] = []
    lines = file.lines
    for i, line in enumerate(lines):
        if "concurrent" not in line.lower():
            continue  # cannot open a DC loop: skip classifying it
        if classify_line(line) is not LineKind.DO_CONCURRENT:
            continue
        args, trailing = split_paren_args(line)
        indices = []
        for part in args.split(","):
            name = part.split("=")[0].strip().lower()
            if name:
                indices.append(name)
        reductions, locals_declared = [], []
        for m in _REDUCTION_CLAUSE_RE.finditer(trailing):
            reductions.extend(_clause_arrays(m.group(1)))
        for m in _LOCAL_CLAUSE_RE.finditer(trailing):
            locals_declared.extend(_clause_arrays(m.group(1)))
        try:
            end = find_dc_loop_end(lines, i)
        except ValueError:  # unterminated: the unit runs to the end of the file
            end = len(lines) - 1
        units.append(
            LoopUnit(
                file=file,
                header_line=i,
                indices=indices,
                statements=_gather_statements(file, i + 1, end - 1),
                reductions=reductions,
                locals_declared=locals_declared,
            )
        )
    return units


def _region_units(file: SourceFile, region: ParallelRegion) -> list[LoopUnit]:
    """One unit per do-nest of an OpenACC parallel region."""
    reductions = _region_clause_vars(file, region, _REDUCTION_CLAUSE_RE)
    privates = _region_clause_vars(file, region, _PRIVATE_CLAUSE_RE)
    units = []
    for nest in region.loops:
        first, last = nest.body_range
        units.append(
            LoopUnit(
                file=file,
                header_line=nest.start,
                indices=[v.lower() for v in nest.index_vars],
                statements=_gather_statements(file, first, last),
                reductions=reductions,
                locals_declared=privates,
            )
        )
    return units


def _loop_findings(unit: LoopUnit) -> list[Finding]:
    rep = unit.analyze()
    f = unit.file.name
    out = []
    for a in rep.carried:
        out.append(Finding("DC001", f, a.line + 1, f"{a.array}: {a.detail}",
                           context=a.array))
    for s in rep.undeclared_reductions:
        out.append(Finding("DC002", f, s.line + 1, f"{s.scalar}: {s.detail}",
                           context=s.scalar))
    for a in rep.shared_writes:
        out.append(Finding("DC003", f, a.line + 1, f"{a.array}: {a.detail}",
                           context=a.array))
    for s in rep.carried_scalars:
        out.append(Finding("DC004", f, s.line + 1, f"{s.scalar}: {s.detail}",
                           context=s.scalar))
    for a in rep.indirect_writes:
        out.append(Finding("DC005", f, a.line + 1, f"{a.array}: {a.detail}",
                           context=a.array))
    return out


def _region_fusion_findings(
    file: SourceFile, units: list[LoopUnit]
) -> list[Finding]:
    """DC006: hazards between sibling nests sharing one parallel region."""
    out = []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            a, b = units[i].analyze(), units[j].analyze()
            if depends(a.reads, a.writes, b.reads, b.writes):
                out.append(
                    Finding(
                        "DC006", file.name, units[j].header_line + 1,
                        "loop nest depends on an earlier nest in the same "
                        "parallel region; fusion/split changes synchronization",
                        related=(RelatedLocation(
                            file.name, units[i].header_line + 1,
                            "the earlier sibling nest it depends on",
                        ),),
                    )
                )
    return out


def _hygiene_findings(file: SourceFile) -> list[Finding]:
    """ACC101/102/103: structural directive problems in one file."""
    out = []
    region_depth = 0
    combined_open = 0
    prev_was_directive = False
    wait_ids: list[tuple[str, int]] = []
    async_ids: set[str] = set()
    for i, line in enumerate(file.lines):
        if not is_directive_line(line):
            prev_was_directive = False
            continue
        d = parse_directive(line)
        if d.kind is DirectiveKind.CONTINUATION:
            if not prev_was_directive:
                out.append(
                    Finding("ACC102", file.name, i + 1,
                            "continuation line follows a non-directive line")
                )
            # a continuation extends the previous directive; keep the flag
            prev_was_directive = True
            continue
        prev_was_directive = True
        if d.is_region_end:
            if region_depth > 0:
                region_depth -= 1
            elif combined_open > 0:
                # the optional `end` of a combined construct
                combined_open -= 1
            else:
                out.append(
                    Finding("ACC101", file.name, i + 1,
                            f"'{d.payload}' closes no open region")
                )
        elif d.is_combined_construct:
            # combined `parallel loop`: closed by the loop nest itself,
            # with an *optional* end directive -- track it separately so
            # neither form corrupts the region depth
            combined_open += 1
        elif d.is_region_start:
            region_depth += 1
        m = _ASYNC_RE.search(d.payload)
        if m:
            async_ids.add(m.group(1).lower())
        if d.kind is DirectiveKind.WAIT:
            wm = _WAIT_RE.match(d.payload)
            if wm and wm.group(1):
                for qid in wm.group(1).split(","):
                    wait_ids.append((qid.strip().lower(), i))
    # Only meaningful in files that launch async work at all: after the DC
    # passes convert the async plain regions, leftover waits are harmless
    # global barriers (and their lines are pinned by the Table I census),
    # not queue-mismatch bugs -- see docs/ANALYSIS.md.
    for qid, i in wait_ids:
        if async_ids and qid not in async_ids:
            out.append(
                Finding("ACC103", file.name, i + 1,
                        f"wait({qid}) but nothing in this file launches on "
                        f"async({qid})")
            )
    return out


@dataclass(frozen=True, slots=True)
class _CoverageFragment:
    """What one file's data directives say about residency."""

    entered: frozenset[str]   # enter data / declare / entering clauses
    #: the first exit (delete / copyout) and update-host site per array,
    #: as (array, 0-based line) in line order
    exited: tuple[tuple[str, int], ...]
    updated_host: tuple[tuple[str, int], ...]
    manual_mode: bool  # the file has an enter data


@dataclass(slots=True)
class _DataCoverage:
    """Codebase-wide picture of which arrays the data directives manage."""

    entered: set[str] = field(default_factory=set)    # enter data / declare
    exited: dict[str, tuple[str, int]] = field(default_factory=dict)
    updated_host: dict[str, tuple[str, int]] = field(default_factory=dict)
    manual_mode: bool = False  # any enter data anywhere

    def mentioned(self) -> set[str]:
        """Every array any data directive manages (the UM201 universe)."""
        return self.entered | set(self.exited) | set(self.updated_host)


def _scan_compute_clauses(payload: str, entered: set[str]) -> None:
    """Count entering data clauses on a compute construct toward coverage."""
    for m in _DATA_CLAUSE_RE.finditer(payload):
        if m.group(1).lower() in ("copyin", "copy", "create", "present"):
            entered.update(_clause_arrays(m.group(2)))


def _coverage_fragment(file: SourceFile) -> _CoverageFragment:
    entered: set[str] = set()
    exited: dict[str, int] = {}
    updated_host: dict[str, int] = {}
    manual_mode = False
    current_kind: DirectiveKind | None = None
    in_host_data = False
    for i, line in enumerate(file.lines):
        if not is_directive_line(line):
            current_kind = None
            continue
        d = parse_directive(line)
        if d.kind is DirectiveKind.CONTINUATION:
            if current_kind in (DirectiveKind.PARALLEL_LOOP, DirectiveKind.KERNELS):
                _scan_compute_clauses(d.payload, entered)
                continue
            if current_kind is not DirectiveKind.DATA or in_host_data:
                continue
            payload = d.payload
        else:
            current_kind = d.kind
            if d.kind in (DirectiveKind.PARALLEL_LOOP, DirectiveKind.KERNELS):
                # data clauses spelled on the compute construct itself
                # (`parallel loop copyin(...) present(...)`) establish
                # residency for that construct; real trees use this form
                # heavily, and without it UM201 floods
                _scan_compute_clauses(d.payload, entered)
                continue
            if d.kind is not DirectiveKind.DATA:
                continue
            p = d.payload.lower()
            in_host_data = p.startswith(("host_data", "end host_data"))
            if in_host_data:
                continue  # use_device() is address plumbing, not residency
            if p.startswith("enter data"):
                manual_mode = True
            payload = d.payload
        for m in _DATA_CLAUSE_RE.finditer(payload):
            clause = m.group(1).lower()
            arrays = _clause_arrays(m.group(2))
            if clause in ("copyin", "copy", "create", "present"):
                entered.update(arrays)
            elif clause in ("delete", "copyout"):
                for a in arrays:
                    exited.setdefault(a, i)
            elif clause in ("host", "self"):
                for a in arrays:
                    updated_host.setdefault(a, i)
            # device / use_device: pushes or address-taking; imposes no
            # residency obligation we can check without false positives
            # (Code 6 re-adds update device() for tables that live via
            # declare in other builds) -- see docs/ANALYSIS.md.
    return _CoverageFragment(
        frozenset(entered), tuple(exited.items()), tuple(updated_host.items()),
        manual_mode,
    )


def _coverage_findings(sheets: list[FileFacts]) -> list[Finding]:
    """UM201/202/203 over the whole codebase, joined from its sheets in
    file order (the first exit or update-host site of an array wins)."""
    cov = _DataCoverage()
    for sheet in sheets:
        frag = sheet.checked().coverage
        cov.entered |= frag.entered
        for a, i in frag.exited:
            cov.exited.setdefault(a, (sheet.name, i))
        for a, i in frag.updated_host:
            cov.updated_host.setdefault(a, (sheet.name, i))
        cov.manual_mode |= frag.manual_mode
    out = []
    if not cov.manual_mode:
        return out  # UM-managed build: coverage rules don't apply
    for a, (fname, i) in sorted(cov.exited.items()):
        if a not in cov.entered:
            out.append(
                Finding("UM202", fname, i + 1,
                        f"{a} exits a data region it never entered",
                        context=a)
            )
    for a, (fname, i) in sorted(cov.updated_host.items()):
        if a not in cov.entered:
            out.append(
                Finding("UM203", fname, i + 1,
                        f"update host({a}) but {a} was never entered",
                        context=a)
            )
    # region accesses of arrays the data directives manage elsewhere
    universe = cov.mentioned()
    for sheet in sheets:
        for header_line, touched in sheet.checked().region_names:
            for name in sorted(touched & universe):
                if name not in cov.entered:
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


def _lint_file(
    file: SourceFile, regions: list[ParallelRegion]
) -> tuple[tuple[Finding, ...], tuple[tuple[int, frozenset[str]], ...]]:
    """The per-file findings (loop units + hygiene), and each region
    unit's header line and touched names (what UM201 reads)."""
    out = []
    touched = []
    region_lines: set[int] = set()
    for region in regions:
        units = _region_units(file, region)
        region_lines.update(range(region.start, region.end + 1))
        for unit in units:
            out.extend(_loop_findings(unit))
            rep = unit.analyze()
            touched.append((unit.header_line, frozenset(rep.reads | rep.writes)))
        out.extend(_region_fusion_findings(file, units))
    for unit in _dc_units(file):
        if unit.header_line in region_lines:
            continue  # DC inside an ACC region: the region units cover it
        out.extend(_loop_findings(unit))
    out.extend(_hygiene_findings(file))
    return tuple(out), tuple(touched)


def analyze_file(
    file: SourceFile, regions: list[ParallelRegion] | None = None
) -> list[Finding]:
    """All per-file findings (loop units + hygiene), read off the file's
    fact sheet.

    ``regions`` are the file's parallel regions when the caller has
    already found them.
    """
    return list(file_facts(file, regions).checked().findings)


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
