"""Scans as they were before the keyword search, kept verbatim as the
test oracle.

The porter's: ``atomic_dc_loops`` lower-cases every line to find
``concurrent`` and parses every directive line inside a nest,
``find_subroutines`` lower-cases every line to find ``subroutine``;
``drop_legacy_paths`` strips every line; ``strip_glue`` runs the glue
regex on every line; ``drop_routine_directives`` and ``manual_inline`` are
the bodies of ``PureDcPass._drop_routine_directives`` and
``PureDcPass._manual_inline`` (the call search visits every line).
``find_dc_loop_end`` and ``parse_loop_nest`` walk from a header and count
levels, classifying every line until its ``enddo``; ``parallel_spans``
(then in ``repro.analysis.interproc``) lower-cases every line to find its
DC loops.

The analyzer's summary inputs: ``index_fragment`` lower-cases every line
and ``_routine_block_has_acc`` classifies every line from a routine's
header to the end of its declaration part; ``_file_module_variables``
lower-cases every line and drops every spec line that mentions
``parameter`` anywhere; ``_scan_block`` runs ``declared_entities`` on
every body line and hashes the body line by line. ``_scan_effects`` runs
``declared_entities`` and the three effect patterns on every executable
body line, and ``_identifiers`` lowers each match twice.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterator
from dataclasses import replace

from repro.analysis.facts import (
    CallSite,
    _base_name,
    _Block,
    _split_top_commas,
    _strip_if_guard,
)
from repro.analysis.interproc import (
    _ALLOC_RE,
    _IDENT_RE,
    _IO_RE,
    _STMT_WORDS,
    _STOP_RE,
    Effect,
    ProcedureSummary,
    Purity,
    _assignment_parts,
)
from repro.fortran.directives import (
    DirectiveKind,
    is_directive_line,
    parse_directive,
    try_parse_directive,
)
from repro.fortran.frontend.resolve import (
    _END_INTERFACE_RE,
    _INTERFACE_RE,
    IndexFragment,
    RoutineSym,
    UseEdge,
    _parse_use,
)
from repro.fortran.inline import InlineRefusedError, inline_call, parse_routine
from repro.fortran.lexer import LineKind, called_name, classify_line, module_name, subroutine_name
from repro.fortran.parser import (
    _DO_RE,
    LoopNest,
    ParallelRegion,
    SubroutineBlock,
    declared_entities,
    declared_intent,
    find_parallel_regions,
    parse_procedure_header,
)
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.tree_io import shown

ACCUM_RE = re.compile(r"^(\s*)(\w+)\((\w+)\)\s*=\s*\2\(\3\)\s*\+\s*(.+)$")
_GLUE_RE = re.compile(r"call\s+(un)?load_gpu_buffer\b", re.I)
MANUAL_INLINE_ROUTINES = ("interp1",)


def find_dc_loop_end(lines: list[str], start: int) -> int:
    """Index of the enddo closing the do/do-concurrent loop at ``start``."""
    level = 0
    for i in range(start, len(lines)):
        kind = classify_line(lines[i])
        if kind is LineKind.DO or kind is LineKind.DO_CONCURRENT:
            level += 1
        elif kind is LineKind.ENDDO:
            level -= 1
            if level == 0:
                return i
    raise ValueError(f"unterminated do concurrent at line {start}")


def parse_loop_nest(lines: list[str], start: int) -> LoopNest | None:
    """Parse a rectangular ``do`` nest beginning at ``start``."""
    depth = 0
    idx_vars: list[str] = []
    bounds: list[str] = []
    i = start
    while i < len(lines):
        m = _DO_RE.match(lines[i])
        if m is None:
            break
        idx_vars.append(m.group(1))
        bounds.append(m.group(2).strip())
        depth += 1
        i += 1
    if depth == 0:
        return None
    # walk to the matching sequence of enddos
    level = depth
    while i < len(lines) and level > 0:
        kind = classify_line(lines[i])
        if kind is LineKind.DO or kind is LineKind.DO_CONCURRENT:
            level += 1
        elif kind is LineKind.ENDDO:
            level -= 1
        i += 1
    if level != 0:
        raise ValueError(f"unterminated do nest at line {start}")
    return LoopNest(start=start, end=i - 1, depth=depth, index_vars=idx_vars, bounds=bounds)


def parallel_spans(
    file: SourceFile, regions: list[ParallelRegion] | None = None
) -> list[tuple[int, int, str]]:
    """(start, end, label) for every parallel context in ``file``.

    Covers ``!$acc parallel`` regions (``regions`` when the caller has
    already found them) and free-standing ``do concurrent`` loops (a DC
    loop already inside a region is not double-counted).
    """
    spans: list[tuple[int, int, str]] = []
    covered: set[int] = set()
    if regions is None:
        regions = find_parallel_regions(file)
    for region in regions:
        spans.append(
            (region.start, region.end,
             f"the parallel region at line {region.start + 1}")
        )
        covered.update(range(region.start, region.end + 1))
    for i, line in enumerate(file.lines):
        if (
            i in covered
            or "concurrent" not in line.lower()  # cannot open a DC loop
            or classify_line(line) is not LineKind.DO_CONCURRENT
        ):
            continue
        try:
            end = find_dc_loop_end(file.lines, i)
        except ValueError:  # unterminated: the loop spans its header only
            end = i
        spans.append((i, end, f"the do concurrent loop at line {i + 1}"))
        covered.update(range(i, end + 1))
    return sorted(spans)


def atomic_dc_loops(lines: list[str]) -> Iterator[tuple[int, int, list[int], bool]]:
    """Each outermost ``do concurrent`` nest that holds ``!$acc atomic`` lines.

    Yields ``(start, end, atomics, accumulates)``: the nest's header and
    closing ``enddo``, its atomic directive lines, and whether any of them
    guards an accumulation (Listing 4) rather than some other statement.
    Only lines that mention ``concurrent`` are classified.
    """
    end = -1
    for i, ln in enumerate(lines):
        if i <= end or "concurrent" not in ln.lower():
            continue
        if classify_line(ln) is not LineKind.DO_CONCURRENT:
            continue
        end = find_dc_loop_end(lines, i)
        atomics = [
            k
            for k in range(i + 1, end)
            if is_directive_line(lines[k])
            and parse_directive(lines[k]).kind is DirectiveKind.ATOMIC
        ]
        if atomics:
            yield i, end, atomics, any(ACCUM_RE.match(lines[k + 1]) for k in atomics)


def find_subroutines(file: SourceFile, name_pattern: str | None = None) -> list[SubroutineBlock]:
    """Subroutine blocks, optionally filtered by a name regex."""
    pat = re.compile(name_pattern) if name_pattern else None
    out = []
    start = None
    name = None
    for i, ln in enumerate(file.lines):
        if "subroutine" not in ln.lower():
            continue  # neither a start nor an end line
        kind = classify_line(ln)
        if kind is LineKind.SUBROUTINE_START and start is None:
            start = i
            name = subroutine_name(ln)
        elif kind is LineKind.SUBROUTINE_END and start is not None:
            assert name is not None
            if pat is None or pat.search(name):
                out.append(SubroutineBlock(file, start, i, name))
            start, name = None, None
    return out


def drop_legacy_paths(f: SourceFile) -> None:
    """Remove the dead ``if (.not. gpu_managed)`` transfer branches."""
    out: list[str] = []
    i = 0
    while i < len(f.lines):
        if f.lines[i].strip() == "if (.not. gpu_managed) then":
            while f.lines[i].strip() != "endif":
                i += 1
            i += 1
            continue
        out.append(f.lines[i])
        i += 1
    f.lines = out


def strip_glue(f: SourceFile) -> None:
    """The last line of ``UnifiedMemPass._strip_file``."""
    f.lines = [ln for ln in f.lines if not _GLUE_RE.search(ln)]


def drop_routine_directives(cb: Codebase) -> None:
    for f in cb.files:
        f.lines = [
            ln
            for ln in f.lines
            if not (
                is_directive_line(ln)
                and parse_directive(ln).kind is DirectiveKind.ROUTINE
            )
        ]


def manual_inline(cb: Codebase) -> None:
    for name in MANUAL_INLINE_ROUTINES:
        routine = None
        for f in cb.files:
            for blk in find_subroutines(f, rf"^{name}$"):
                routine = parse_routine(f, blk.start)
        if routine is None:
            continue
        call_re = re.compile(rf"^\s*call\s+{name}\s*\(")
        for f in cb.files:
            i = 0
            while i < len(f.lines):
                if name in f.lines[i] and call_re.match(f.lines[i]):
                    try:
                        i += inline_call(f, i, routine)
                    except InlineRefusedError:
                        pass
                i += 1


# -- the analyzer's summary inputs ---------------------------------------------


def _routine_block_has_acc(lines: list[str], start: int) -> bool:
    """True if an ``!$acc routine`` sits in the routine's declaration part."""
    for i in range(start + 1, len(lines)):
        kind = classify_line(lines[i])
        if kind is LineKind.DIRECTIVE:
            d = try_parse_directive(lines[i])
            if d is not None and d.kind is DirectiveKind.ROUTINE:
                return True
            continue
        if kind in (LineKind.DO, LineKind.DO_CONCURRENT, LineKind.CALL,
                    LineKind.SUBROUTINE_END, LineKind.FUNCTION_END,
                    LineKind.CONTAINS):
            return False
    return False


def index_fragment(file: SourceFile) -> IndexFragment:
    """Scan one file for its modules, routines and ``use`` edges."""
    modules: list[str] = []
    routines: list[RoutineSym] = []
    uses: list[tuple[int, UseEdge]] = []
    current_module = ""
    in_interface = False
    open_routines: list[RoutineSym] = []  # contains-nesting stack
    for i, line in enumerate(file.lines):
        low = line.lower()  # every pattern below needs its keyword in it
        if "nterface" in low:  # `re.I` reads `ı` as `i`; `lower()` keeps it
            if _INTERFACE_RE.match(line):
                in_interface = True
                continue
            if _END_INTERFACE_RE.match(line):
                in_interface = False
                continue
        if in_interface:
            continue
        kind = (
            classify_line(line)
            if "module" in low or "subroutine" in low or "function" in low
            or "end" in low  # a bare `end` closes a procedure too
            else None  # opens or closes neither a module nor a procedure
        )
        if kind is LineKind.MODULE_START:
            name = (module_name(line) or "").lower()
            if name != "procedure":
                current_module = name
                modules.append(name)
        elif kind is LineKind.MODULE_END:
            current_module = ""
        elif kind in (LineKind.SUBROUTINE_START, LineKind.FUNCTION_START):
            header = parse_procedure_header(line)
            if header is None:
                continue
            sym = RoutineSym(
                name=header.name,
                kind=header.kind,
                file=file.name,
                line=i,
                module=current_module,
                acc_routine=_routine_block_has_acc(file.lines, i),
                parent=open_routines[-1].name if open_routines else "",
                declared_pure=header.declared_pure,
                dummies=header.dummies,
                result=header.result,
            )
            open_routines.append(sym)
        elif kind in (LineKind.SUBROUTINE_END, LineKind.FUNCTION_END):
            if open_routines:
                routines.append(replace(open_routines.pop(), end_line=i))
        elif "use" in low:
            edge = _parse_use(line)
            if edge is not None:
                uses.append((i, edge))
    return IndexFragment(file.name, tuple(modules), tuple(routines), tuple(uses))


def _file_module_variables(file: SourceFile) -> tuple[tuple[str, frozenset[str]], ...]:
    """One file's (module, spec-part variable names) pairs."""
    out: dict[str, set[str]] = {}
    current = ""
    in_spec = False
    for line in file.lines:
        low = line.lower()
        # only module, contains and end-module lines change the state
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
        if in_spec and current and "parameter" not in low:
            out[current].update(declared_entities(line))
    return tuple((m, frozenset(vs)) for m, vs in out.items())


def _scan_block(
    file: SourceFile, sym: RoutineSym, calls: tuple[CallSite, ...]
) -> _Block:
    """Phase-1 scan: body hash, call sites (of the file's ``calls``),
    locals, intents and each dummy's first declaration."""
    body = range(sym.line + 1, max(sym.line + 1, sym.end_line))
    locals_: set[str] = set()
    intents: dict[str, str] = {}
    decl_sites: dict[str, tuple[int, tuple[str, ...], str]] = {}
    dummies = set(sym.dummies)
    for i in body:
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
    digest = hashlib.sha256()
    digest.update(f"{sym.file}:{sym.line}:{sym.end_line}\n".encode())
    digest.update(file.lines[sym.line].encode("utf-8", "surrogateescape"))
    for i in body:
        digest.update(b"\n")
        digest.update(file.lines[i].encode("utf-8", "surrogateescape"))
    return _Block(
        sym=sym, body_hash=digest.hexdigest(),
        calls=tuple(c for c in calls if c.line in body),
        locals_=frozenset(locals_), intents=tuple(sorted(intents.items())),
        decl_sites=tuple((d, *site) for d, site in decl_sites.items()),
    )


def _identifiers(text: str) -> set[str]:
    return {
        m.group(1).lower()
        for m in _IDENT_RE.finditer(text)
        if m.group(1).lower() not in _STMT_WORDS
    }


def _scan_effects(
    cb: Codebase,
    block: _Block,
    visible: dict[str, str],
    callee_summaries: dict[str, ProcedureSummary | None],
) -> ProcedureSummary:
    """Phase-2 scan: reads/writes/effects with callee summaries folded in."""
    sym = block.sym
    file = cb.file(sym.file)
    dummies = set(sym.dummies)
    known_local = block.locals_ | {sym.result} if sym.result else set(block.locals_)
    dummy_reads: set[str] = set()
    dummy_writes: set[str] = set()
    globals_read: set[str] = set()
    globals_written: set[str] = set()
    effects: set[Effect] = set()
    unresolved: set[str] = set()
    unknown_write = False

    def note_reads(names: set[str]) -> None:
        for n in names:
            if n in dummies:
                dummy_reads.add(n)
            elif n in visible and n not in known_local:
                globals_read.add(visible[n])

    def note_write(n: str, line: int) -> None:
        nonlocal unknown_write
        if n in dummies:
            dummy_writes.add(n)
        elif n in known_local:
            pass
        elif n in visible:
            globals_written.add(visible[n])
            effects.add(
                Effect("global-write", visible[n], sym.file, line)
            )
        else:
            unknown_write = True

    for i in block.body_lines:
        line = file.lines[i]
        kind = classify_line(line)
        if kind in (LineKind.BLANK, LineKind.COMMENT, LineKind.DIRECTIVE):
            continue
        code = line.split("!", 1)[0]
        guard, action = _strip_if_guard(code)
        if kind is LineKind.CALL or called_name(action) is not None:
            # folded in below, via the callee summary; the guard of a
            # one-line `if (cond) call ...` still reads its operands
            note_reads(_identifiers(guard))
            continue
        if declared_entities(line):
            continue  # declaration, not an executable statement
        if _IO_RE.match(action):
            effects.add(Effect("io", shown(action.strip()[:40]), sym.file, i))
            note_reads(_identifiers(code))
            continue
        if _STOP_RE.match(action):
            effects.add(Effect("stop", shown(action.strip()[:40]), sym.file, i))
            note_reads(_identifiers(guard))
            continue
        m = _ALLOC_RE.match(action)
        if m:
            inner = action[action.index("(") + 1 : action.rindex(")")] if ")" in action else ""
            for arg in _split_top_commas(inner):
                base = _base_name(arg)
                if base in visible and base not in known_local | dummies:
                    effects.add(
                        Effect("allocate-global", visible[base], sym.file, i)
                    )
                    globals_written.add(visible[base])
            continue
        if kind is LineKind.STATEMENT:
            parts = _assignment_parts(code)
            if parts is not None:
                guard, lhs, rhs = parts
                note_write(lhs, i)
                note_reads(_identifiers(guard) | _identifiers(rhs))
                continue
        note_reads(_identifiers(code))

    # fold the callees in: their effects are ours, their dummy writes land
    # on our actuals, their global traffic is ours transitively
    for site in block.calls:
        callee = callee_summaries.get(site.callee)
        if callee is None:
            unresolved.add(site.callee)
            continue
        effects.update(callee.effects)
        globals_read.update(callee.globals_read)
        globals_written.update(callee.globals_written)
        if callee.purity is Purity.UNKNOWN:
            unknown_write = True
        for pos, actual in enumerate(site.actuals):
            if pos >= len(callee.dummies) or not actual:
                continue
            d = callee.dummies[pos]
            if callee.writes_dummy(d):
                note_write(actual, site.line)
            if d in callee.dummy_reads or callee.declared_intent_of(d) in (
                "in", "inout",
            ):
                note_reads({actual})

    if effects:
        purity = Purity.IMPURE
    elif unknown_write or unresolved:
        purity = Purity.UNKNOWN
    else:
        purity = Purity.PURE
    return ProcedureSummary(
        name=sym.name, kind=sym.kind, file=sym.file, line=sym.line,
        end_line=sym.end_line, module=sym.module,
        declared_pure=sym.declared_pure, acc_routine=sym.acc_routine,
        dummies=sym.dummies,
        declared_intents=block.intents,
        decl_sites=block.decl_sites,
        dummy_reads=frozenset(dummy_reads),
        dummy_writes=frozenset(dummy_writes),
        globals_read=tuple(sorted(globals_read)),
        globals_written=tuple(sorted(globals_written)),
        effects=tuple(sorted(effects, key=lambda e: (e.file, e.line, e.kind))),
        calls=block.calls,
        unresolved_calls=tuple(sorted(unresolved)),
        purity=purity,
    )
