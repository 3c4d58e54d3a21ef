"""The porter's per-line scans as they were before the keyword search,
and the loop walks before the loop table, kept verbatim as the test oracle.

``atomic_dc_loops`` lower-cases every line to find ``concurrent`` and
parses every directive line inside a nest, ``find_subroutines`` lower-cases
every line to find ``subroutine``; ``drop_legacy_paths`` strips
every line; ``strip_glue`` runs the glue regex on every line;
``drop_routine_directives`` and ``manual_inline`` are the bodies of
``PureDcPass._drop_routine_directives`` and ``PureDcPass._manual_inline``
(the call search visits every line). ``find_dc_loop_end`` and
``parse_loop_nest`` walk from a header and count levels, classifying every
line until its ``enddo``; ``parallel_spans`` (then in
``repro.analysis.interproc``) lower-cases every line to find its DC loops.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.fortran.directives import DirectiveKind, is_directive_line, parse_directive
from repro.fortran.inline import InlineRefusedError, inline_call, parse_routine
from repro.fortran.lexer import LineKind, classify_line, subroutine_name
from repro.fortran.parser import (
    _DO_RE,
    LoopNest,
    ParallelRegion,
    SubroutineBlock,
    find_parallel_regions,
)
from repro.fortran.source import Codebase, SourceFile

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
