"""One fact sheet per file: everything the lint rule families read of it.

A sheet is computed from a file's lines and kept under ``(file name,
sha256 of its lines)``. Every rule family reads the sheet instead of
scanning the file again; the scans that build it share one
:class:`~repro.fortran.parser.LineScan` of the file. It has two parts:

* the summary inputs, which are line scans that hold for any text --
  ``index`` (modules, routine symbols and ``use`` edges), ``calls`` (every
  call site, a one-line ``if (cond) call`` included), ``blocks`` (each
  routine's body facts) and ``module_vars`` (the file's module spec
  variables). :func:`repro.analysis.interproc.summarize` reads only these
  (:func:`summary_facts`);
* ``lint``, what the per-file rules need the file's parallel regions for
  (:class:`LintFacts`): the ``DC0xx``/``ACC1xx`` findings, the
  data-directive fragment and each region unit's touched names
  (``UM2xx``), and the parallel span around each call site
  (``IP101``-``IP103``). A lint (:func:`file_facts`) computes it, on a
  sheet the summary pass left without one too.

The scans live here, below the rule families, which keep the joins.

A sheet holds values only: frozen findings and records, tuples and
frozensets. It references no ``SourceFile``, ``Codebase``, region or loop
unit, so nothing cached keeps a tree alive and no caller can change a
cached fact. What spans files is joined fresh on every lint: data
coverage, the symbol index, the summary pass (with its own summary cache),
the IP judgements, sorting and telemetry. A warm lint therefore digests
each file, looks up its sheet and runs the joins; after an edit only the
edited file's sheet is recomputed.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from repro.analysis.dependence import LoopReport, Statement, analyze_loop_body, depends
from repro.analysis.findings import Finding, RelatedLocation
from repro.fortran.directives import DirectiveKind, parse_directive
from repro.fortran.frontend.resolve import IndexFragment, RoutineSym, index_fragment
from repro.fortran.lexer import LineKind, called_name, classify_line, module_name
from repro.fortran.parser import (
    LineScan,
    ParallelRegion,
    declared_entities,
    declared_intent,
    find_parallel_regions,
    split_paren_args,
)
from repro.fortran.source import SourceFile
from repro.obs.telemetry import current as _telemetry

#: Cap on each cross-run cache (entries, not bytes): the fact sheets here,
#: the procedure summaries in :mod:`repro.analysis.interproc`.
_CACHE_LIMIT = 8192
_SHEETS: dict[tuple[str, str], FileFacts] = {}


@dataclass(frozen=True, slots=True)
class LintFacts:
    """What the per-file lint rules read of one file's parallel regions."""

    findings: tuple[Finding, ...] = ()
    coverage: _CoverageFragment | None = None
    region_names: tuple[tuple[int, frozenset[str]], ...] = ()
    #: the label of the parallel span enclosing each of the sheet's
    #: ``calls``, or None outside every span
    call_spans: tuple[str | None, ...] = ()
    #: the error the loop rules hit reading the file (exception type and
    #: arguments), when its regions do not parse
    error: tuple[type[Exception], tuple] | None = None


@dataclass(frozen=True, slots=True)
class FileFacts:
    """What the rule families know about one file's content."""

    name: str
    index: IndexFragment
    calls: tuple[CallSite, ...]
    blocks: tuple[_Block, ...]
    module_vars: tuple[tuple[str, frozenset[str]], ...]
    #: None until a lint reads the sheet
    lint: LintFacts | None = None

    def checked(self) -> LintFacts:
        """The lint part, or the error its file raised, raised again."""
        assert self.lint is not None, "a lint sheet comes from file_facts"
        if self.lint.error is not None:
            kind, args = self.lint.error
            raise kind(*args)
        return self.lint


def clear_fact_sheets() -> None:
    """Drop every cached sheet."""
    _SHEETS.clear()


def file_facts(
    file: SourceFile, regions: list[ParallelRegion] | None = None
) -> FileFacts:
    """The sheet of ``file``'s current lines with its lint part, computed
    on a cache miss.

    ``regions`` are the file's parallel regions when the caller has
    already found them; they are used only when the lint part is computed.
    """
    return _lookup(file, regions, lint=True)


def summary_facts(file: SourceFile) -> FileFacts:
    """The sheet of ``file``'s current lines; on a cache miss only its
    summary inputs are computed, not the per-file rules."""
    return _lookup(file, None, lint=False)


def _lookup(
    file: SourceFile, regions: list[ParallelRegion] | None, *, lint: bool
) -> FileFacts:
    scan = LineScan(file.lines)
    digest = hashlib.sha256(scan.text.encode("utf-8", "surrogateescape")).hexdigest()
    key = (file.name, digest)
    sheet = _SHEETS.get(key)
    if sheet is not None and (sheet.lint is not None or not lint):
        _record("cached")
        return sheet
    if sheet is None:
        sheet = _summary_part(file, scan)
    if lint:
        sheet = replace(sheet, lint=_lint_part(file, scan, regions, sheet.calls))
    if len(_SHEETS) >= _CACHE_LIMIT:
        _SHEETS.clear()
    _SHEETS[key] = sheet
    _record("computed")
    return sheet


def _summary_part(file: SourceFile, scan: LineScan) -> FileFacts:
    index = index_fragment(file, scan)
    calls = _call_sites(file, scan)
    blocks = tuple(_scan_block(file, sym, calls, scan) for sym in index.routines)
    return FileFacts(file.name, index, calls, blocks, _file_module_variables(file, scan))


def _lint_part(
    file: SourceFile,
    scan: LineScan,
    regions: list[ParallelRegion] | None,
    calls: tuple[CallSite, ...],
) -> LintFacts:
    try:
        if regions is None:
            regions = find_parallel_regions(file, scan)
        findings, region_names = _lint_file(file, scan, regions)
        coverage = _coverage_fragment(scan)
        spans = parallel_spans(scan, regions)
    except (ValueError, IndexError) as exc:
        return LintFacts(error=(type(exc), exc.args))
    return LintFacts(
        findings, coverage, region_names,
        tuple(
            next((label for s, e, label in spans if s <= site.line <= e), None)
            for site in calls
        ),
    )


def _record(result: str) -> None:
    tel = _telemetry()
    if not tel.enabled:
        return
    tel.metrics.counter(
        "lint_file_facts_total",
        "per-file fact sheets by cache outcome",
        labelnames=("result",),
    ).labels(result=result).inc()


# -- the summary inputs --------------------------------------------------------

_IF_GUARD_RE = re.compile(r"^\s*if\s*\(", re.I)
_CALL_ARGS_RE = re.compile(r"^\s*call\s+\w+\s*\((.*)\)\s*$", re.I)
_BASE_NAME_RE = re.compile(r"\s*([a-z_]\w*)", re.I)


@dataclass(frozen=True, slots=True)
class CallSite:
    """One ``call`` statement, with the actual arguments' base names."""

    callee: str
    file: str
    line: int  # 0-based
    actuals: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class _Block:
    """One routine's raw body facts before summary propagation."""

    sym: RoutineSym
    body_hash: str
    calls: tuple[CallSite, ...]
    locals_: frozenset[str]
    intents: tuple[tuple[str, str], ...]  # (dummy, declared intent), sorted
    decl_sites: tuple[tuple[str, int, tuple[str, ...], str], ...]
    #: contains-nested children's (first, last) lines, left out of the body
    children: tuple[tuple[int, int], ...] = ()

    @property
    def body_lines(self) -> list[int]:
        body = range(self.sym.line + 1, max(self.sym.line + 1, self.sym.end_line))
        drop = {i for first, last in self.children for i in range(first, last + 1)}
        return [i for i in body if i not in drop]


def _split_top_commas(text: str) -> list[str]:
    out, depth, token = [], 0, ""
    for ch in text + ",":
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            out.append(token.strip())
            token = ""
            continue
        token += ch
    return [t for t in out if t]


def _base_name(expr: str) -> str:
    m = _BASE_NAME_RE.match(expr)
    return m.group(1).lower() if m else ""


def _strip_if_guard(code: str) -> tuple[str, str]:
    """Split a one-line ``if (cond) action`` into (cond, action).

    Returns ``("", code)`` for anything else — including block ``if``
    headers, whose action part is ``then``.  Guarded statements carry
    the same side effects as bare ones (``if (ierr.ne.0) stop`` is the
    canonical production pattern), so every effect matcher runs on the
    action, never the raw line.
    """
    m = _IF_GUARD_RE.match(code)
    if m is None:
        return "", code
    depth, i = 1, m.end()
    while i < len(code) and depth:
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
        i += 1
    action = code[i:].strip()
    if depth or not action or action.lower().startswith("then"):
        return "", code
    return code[m.end() - 1 : i], action


def _file_module_variables(
    file: SourceFile, scan: LineScan
) -> tuple[tuple[str, frozenset[str]], ...]:
    """One file's (module, spec-part variable names) pairs.

    Only module, contains and end-module lines change the state, and only
    a line holding ``::`` declares (:func:`declared_entities`), so only
    the lines of ``scan`` holding one of these are visited. A declaration
    whose attribute list (the entries before ``::`` after the type spec,
    split at commas outside parentheses) holds ``parameter`` declares a
    named constant, not a variable.
    """
    out: dict[str, set[str]] = {}
    current = ""
    in_spec = False
    rows = sorted({
        *scan.rows("module", fold=True), *scan.rows("contains", fold=True),
        *scan.rows("::"),
    })
    for i in rows:
        line = file.lines[i]
        low = line.lower()
        kind = classify_line(line) if "module" in low or "contains" in low else None
        if kind is LineKind.MODULE_START:
            name = (module_name(line) or "").lower()
            if name != "procedure":
                current = name
                in_spec = True
                out.setdefault(current, set())
            continue
        if kind in (LineKind.CONTAINS, LineKind.MODULE_END):
            in_spec = False
            current = "" if kind is LineKind.MODULE_END else current
            continue
        if in_spec and current:
            attrs = _split_top_commas(line.split("!", 1)[0].split("::", 1)[0])
            if "parameter" not in (a.lower() for a in attrs[1:]):
                out[current].update(declared_entities(line))
    return tuple((m, frozenset(vs)) for m, vs in out.items())


def _call_statement(line: str) -> str | None:
    """The ``call`` statement a line holds, comment cut off, else None.

    A one-line ``if (cond) call foo(...)`` holds one too: its action.
    """
    kind = classify_line(line)
    if kind is LineKind.CALL:
        return line.split("!", 1)[0]
    if kind is LineKind.STATEMENT and _IF_GUARD_RE.match(line):
        _guard, action = _strip_if_guard(line.split("!", 1)[0])
        if called_name(action) is not None:
            return action
    return None


def _call_sites(file: SourceFile, scan: LineScan) -> tuple[CallSite, ...]:
    """Every call site of a file, with its actuals' base names (only a
    line holding ``call`` can hold one)."""
    out = []
    for i in scan.rows("call", fold=True):
        stmt = _call_statement(file.lines[i])
        if stmt is None:
            continue
        m = _CALL_ARGS_RE.match(stmt.rstrip())
        actuals = tuple(
            _base_name(a) for a in _split_top_commas(m.group(1))
        ) if m else ()
        out.append(CallSite(called_name(stmt).lower(), file.name, i, actuals))
    return tuple(out)


def _scan_block(
    file: SourceFile, sym: RoutineSym, calls: tuple[CallSite, ...], scan: LineScan
) -> _Block:
    """Phase-1 scan: body hash, call sites (of the file's ``calls``),
    locals, intents and each dummy's first declaration (read off the
    body's ``::`` lines, the only ones that declare)."""
    first, stop = sym.line + 1, max(sym.line + 1, sym.end_line)
    locals_: set[str] = set()
    intents: dict[str, str] = {}
    decl_sites: dict[str, tuple[int, tuple[str, ...], str]] = {}
    dummies = set(sym.dummies)
    decls = scan.rows("::")
    for i in decls[bisect_left(decls, first) : bisect_left(decls, stop)]:
        line = file.lines[i]
        entities = declared_entities(line)
        if entities:
            intent = declared_intent(line)
            for e in entities:
                if e in dummies:
                    decl_sites.setdefault(e, (i, entities, intent))
                    if intent:
                        intents[e] = intent
                else:
                    locals_.add(e)
    digest = hashlib.sha256(f"{sym.file}:{sym.line}:{sym.end_line}\n".encode())
    digest.update(
        "\n".join(file.lines[sym.line : stop]).encode("utf-8", "surrogateescape")
    )
    return _Block(
        sym=sym, body_hash=digest.hexdigest(),
        calls=tuple(c for c in calls if first <= c.line < stop),
        locals_=frozenset(locals_), intents=tuple(sorted(intents.items())),
        decl_sites=tuple((d, *site) for d, site in decl_sites.items()),
    )


# -- the per-file lint rules ---------------------------------------------------

_REDUCTION_CLAUSE_RE = re.compile(
    r"\b(?:reduction|reduce)\s*\(\s*[^:)]+:\s*([^)]*)\)", re.I
)
_LOCAL_CLAUSE_RE = re.compile(r"\blocal\s*\(\s*([^)]*)\)", re.I)
_PRIVATE_CLAUSE_RE = re.compile(r"\bprivate\s*\(\s*([^)]*)\)", re.I)
_ASYNC_RE = re.compile(r"\basync\s*\(\s*(\w+)\s*\)", re.I)
_WAIT_RE = re.compile(r"^wait\s*(?:\(\s*([\w,\s]+)\s*\))?", re.I)
#: Data-directive clauses and the role they give their arrays.
_DATA_CLAUSE_RE = re.compile(
    r"\b(copyin|copyout|copy|create|delete|present|device|host|self|use_device)"
    r"\s*\(\s*([^)]*)\)",
    re.I,
)


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


def _dc_units(file: SourceFile, scan: LineScan) -> list[LoopUnit]:
    """Free-standing ``do concurrent`` loops as analyzable units.

    Nested DC loops become their own units too; an outer unit's statement
    list includes the inner loops' statements (its iterations race on
    them just the same).
    """
    units: list[LoopUnit] = []
    lines = file.lines
    for i in scan.dc_headers:
        args, trailing = split_paren_args(lines[i])
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
        end = scan.loops[i]
        if end is None:  # unterminated: the unit runs to the end of the file
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


def _hygiene_findings(file: SourceFile, scan: LineScan) -> list[Finding]:
    """ACC101/102/103: structural directive problems in one file."""
    out = []
    region_depth = 0
    combined_open = 0
    wait_ids: list[tuple[str, int]] = []
    async_ids: set[str] = set()
    for i in scan.directives:
        d = scan.directive(i)
        if d.kind is DirectiveKind.CONTINUATION:
            if i - 1 not in scan.directives:
                out.append(
                    Finding("ACC102", file.name, i + 1,
                            "continuation line follows a non-directive line")
                )
            continue
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


def _scan_compute_clauses(payload: str, entered: set[str]) -> None:
    """Count entering data clauses on a compute construct toward coverage."""
    for m in _DATA_CLAUSE_RE.finditer(payload):
        if m.group(1).lower() in ("copyin", "copy", "create", "present"):
            entered.update(_clause_arrays(m.group(2)))


def _coverage_fragment(scan: LineScan) -> _CoverageFragment:
    entered: set[str] = set()
    exited: dict[str, int] = {}
    updated_host: dict[str, int] = {}
    manual_mode = False
    current_kind: DirectiveKind | None = None
    in_host_data = False
    for i in scan.directives:
        if i - 1 not in scan.directives:
            current_kind = None  # a non-directive line ends the last one
        d = scan.directive(i)
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


def _lint_file(
    file: SourceFile, scan: LineScan, regions: list[ParallelRegion]
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
    for unit in _dc_units(file, scan):
        if unit.header_line in region_lines:
            continue  # DC inside an ACC region: the region units cover it
        out.extend(_loop_findings(unit))
    out.extend(_hygiene_findings(file, scan))
    return tuple(out), tuple(touched)


def parallel_spans(
    scan: LineScan, regions: list[ParallelRegion]
) -> list[tuple[int, int, str]]:
    """(start, end, label) for every parallel context of a file.

    Covers its ``!$acc parallel`` ``regions`` and the free-standing
    ``do concurrent`` loops of its loop table (a DC loop already inside a
    region is not double-counted).
    """
    spans: list[tuple[int, int, str]] = []
    covered: set[int] = set()
    for region in regions:
        spans.append(
            (region.start, region.end,
             f"the parallel region at line {region.start + 1}")
        )
        covered.update(range(region.start, region.end + 1))
    for i in scan.dc_headers:
        if i in covered:
            continue
        end = scan.loops[i]
        if end is None:  # unterminated: the loop spans its header only
            end = i
        spans.append((i, end, f"the do concurrent loop at line {i + 1}"))
        covered.update(range(i, end + 1))
    return sorted(spans)
