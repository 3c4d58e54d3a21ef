"""The line classifier and region finders as they were before the
dispatching classifier, kept verbatim as the test oracle, plus the two
shapes neither classifier knew then: a bare ``end`` and a kind selector
that holds a call.

``classify_line`` is the 14-pattern regex cascade, ``is_directive_line``
the unconditional ``lstrip().lower().startswith``, and the four finders
(with the private helpers they call) rescan every line of a file. They
return the same dataclasses as :mod:`repro.fortran.parser`, so results
compare with ``==``. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import re

from repro.fortran.directives import (
    ACC_SENTINEL,
    DirectiveKind,
    parse_directive,
    try_parse_directive,
)
from repro.fortran.lexer import LineKind, subroutine_name
from repro.fortran.parser import (
    DirectiveLine,
    KernelsRegion,
    LoopNest,
    ParallelRegion,
    RegionKind,
    SubroutineBlock,
)
from repro.fortran.source import SourceFile


_DO_CONCURRENT = re.compile(r"^\s*do\s+concurrent\b", re.I)
_DO = re.compile(r"^\s*do\s+\w+\s*=", re.I)
#: ``do while (...)`` and the bare ``do`` infinite loop: not parallelizable
#: nests, but they end in ``enddo`` so the level walkers must count them.
#: (Labeled ``do 100 i=...`` loops terminate on their label, not ``enddo``,
#: and stay invisible -- both the header and the terminator.)
_DO_OTHER = re.compile(r"^\s*do\s*(while\b[^!]*)?(!.*)?$", re.I)
_ENDDO = re.compile(r"^\s*end\s*do\b", re.I)
#: Procedure prefixes: any combination of purity/recursion attributes
#: (``pure elemental subroutine``, ``impure elemental function`` ...).
_PREFIXES = r"(?:(?:pure|impure|elemental|recursive)\s+)*"
_SUB_START = re.compile(rf"^\s*({_PREFIXES})subroutine\s+(\w+)", re.I)
_SUB_END = re.compile(r"^\s*end\s+subroutine\b", re.I)
_BARE_END = re.compile(r"^\s*end\s*(!.*)?$", re.I)
_FUN_START = re.compile(
    rf"^\s*({_PREFIXES})"
    r"(real|integer|logical|complex|double\s+precision|character|type)?"
    r"\s*(\((?:[^()]|\([^()]*\))*\))?\s*function\s+(\w+)",
    re.I,
)
_FUN_END = re.compile(r"^\s*end\s+function\b", re.I)
_MOD_START = re.compile(r"^\s*module\s+(\w+)", re.I)
_MOD_END = re.compile(r"^\s*end\s+module\b", re.I)
_CONTAINS = re.compile(r"^\s*contains\s*$", re.I)
_CALL = re.compile(r"^\s*call\s+(\w+)", re.I)


def classify_line(line: str) -> LineKind:
    """Classify one line of the Fortran subset."""
    if not line.strip():
        return LineKind.BLANK
    if is_directive_line(line):
        return LineKind.DIRECTIVE
    if line.lstrip().startswith("!"):
        return LineKind.COMMENT
    if _DO_CONCURRENT.match(line):
        return LineKind.DO_CONCURRENT
    if _DO.match(line):
        return LineKind.DO
    if _DO_OTHER.match(line):
        return LineKind.DO
    if _ENDDO.match(line):
        return LineKind.ENDDO
    if _SUB_END.match(line) or _BARE_END.match(line):
        return LineKind.SUBROUTINE_END
    if _SUB_START.match(line):
        return LineKind.SUBROUTINE_START
    if _FUN_END.match(line):
        return LineKind.FUNCTION_END
    if _MOD_END.match(line):
        return LineKind.MODULE_END
    if _MOD_START.match(line):
        return LineKind.MODULE_START
    if _FUN_START.match(line) and "=" not in line.split("!")[0].split("function")[0]:
        return LineKind.FUNCTION_START
    if _CONTAINS.match(line):
        return LineKind.CONTAINS
    if _CALL.match(line):
        return LineKind.CALL
    return LineKind.STATEMENT


def is_directive_line(line: str) -> bool:
    """True for any ``!$acc`` (or continuation ``!$acc&``) line."""
    return line.lstrip().lower().startswith(ACC_SENTINEL)


_DO_RE = re.compile(r"^\s*do\s+(\w+)\s*=\s*(.+)$", re.I)
_ARRAY_ACCUM_RE = re.compile(r"^\s*\w+\(\w+\)\s*=\s*\w+\(\w+\)\s*\+")


def _continuations(lines: list[str], idx: int) -> list[int]:
    """Indices of ``!$acc&`` lines directly following ``idx``."""
    out = []
    j = idx + 1
    while j < len(lines) and is_directive_line(lines[j]):
        d = try_parse_directive(lines[j])
        if d is None or d.kind is not DirectiveKind.CONTINUATION:
            break
        out.append(j)
        j += 1
    return out


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


def _classify_region(
    lines: list[str], start: int, end: int, directive_lines: list[int], atomic_lines: list[int]
) -> RegionKind:
    for i in directive_lines:
        d = parse_directive(lines[i])
        if d.kind is DirectiveKind.PARALLEL_LOOP and d.has_clause("reduction"):
            return RegionKind.SCALAR_REDUCTION
    if atomic_lines:
        for i in atomic_lines:
            j = i + 1
            if j <= end and _ARRAY_ACCUM_RE.match(lines[j]):
                return RegionKind.ARRAY_REDUCTION
        return RegionKind.ATOMIC_OTHER
    for i in range(start, end + 1):
        if classify_line(lines[i]) is LineKind.CALL:
            return RegionKind.ROUTINE_CALLER
    return RegionKind.PLAIN


def _combined_region(file: SourceFile, start: int) -> ParallelRegion:
    """Region for a combined ``parallel loop`` construct at ``start``.

    The region spans the directive (plus continuations) and the loop nest
    it governs; an explicit ``end parallel [loop]`` directly after the
    nest is absorbed when present (it is optional in real OpenACC).
    Raises ValueError when no loop nest follows -- the front end degrades
    such constructs to opaque lines.
    """
    lines = file.lines
    j = start + 1
    while j < len(lines):
        kind = classify_line(lines[j])
        if kind is LineKind.DIRECTIVE and (
            parse_directive(lines[j]).kind is DirectiveKind.CONTINUATION
        ):
            j += 1
            continue
        if kind in (LineKind.BLANK, LineKind.COMMENT):
            j += 1
            continue
        break
    nest = parse_loop_nest(lines, j) if j < len(lines) else None
    if nest is None:
        raise ValueError(
            f"combined construct without a loop nest in {file.name} at {start}"
        )
    end = nest.end
    k = end + 1
    if k < len(lines) and is_directive_line(lines[k]):
        dk = parse_directive(lines[k])
        if dk.kind is DirectiveKind.PARALLEL_LOOP and dk.is_region_end:
            end = k
    directive_lines = [m for m in range(start, end + 1) if is_directive_line(lines[m])]
    atomic_lines = [
        m for m in directive_lines
        if parse_directive(lines[m]).kind is DirectiveKind.ATOMIC
    ]
    kind = _classify_region(lines, start, end, directive_lines, atomic_lines)
    return ParallelRegion(
        file=file, start=start, end=end, kind=kind, loops=[nest],
        directive_lines=directive_lines, atomic_lines=atomic_lines,
    )


def find_parallel_regions(file: SourceFile) -> list[ParallelRegion]:
    """All parallel regions in a file, classified and with their loops."""
    lines = file.lines
    regions: list[ParallelRegion] = []
    i = 0
    while i < len(lines):
        if not is_directive_line(lines[i]):
            i += 1
            continue
        d = parse_directive(lines[i])
        if (
            d.kind is DirectiveKind.PARALLEL_LOOP
            and d.is_combined_construct
        ):
            region = _combined_region(file, i)
            regions.append(region)
            i = region.end + 1
            continue
        if d.kind is DirectiveKind.PARALLEL_LOOP and d.is_region_start:
            start = i
            j = i + 1
            end = None
            while j < len(lines):
                if is_directive_line(lines[j]):
                    dj = parse_directive(lines[j])
                    if dj.kind is DirectiveKind.PARALLEL_LOOP and dj.is_region_end:
                        end = j
                        break
                j += 1
            if end is None:
                raise ValueError(f"unterminated parallel region in {file.name} at {start}")
            directive_lines = [
                k for k in range(start, end + 1) if is_directive_line(lines[k])
            ]
            atomic_lines = [
                k
                for k in directive_lines
                if parse_directive(lines[k]).kind is DirectiveKind.ATOMIC
            ]
            loops = []
            k = start + 1
            while k < end:
                if classify_line(lines[k]) is LineKind.DO:
                    nest = parse_loop_nest(lines, k)
                    if nest is not None and nest.end < end:
                        loops.append(nest)
                        k = nest.end + 1
                        continue
                k += 1
            kind = _classify_region(lines, start, end, directive_lines, atomic_lines)
            regions.append(
                ParallelRegion(
                    file=file,
                    start=start,
                    end=end,
                    kind=kind,
                    loops=loops,
                    directive_lines=directive_lines,
                    atomic_lines=atomic_lines,
                )
            )
            i = end + 1
        else:
            i += 1
    return regions


def find_kernels_regions(file: SourceFile) -> list[KernelsRegion]:
    """All ``!$acc kernels`` regions in a file."""
    lines = file.lines
    out = []
    i = 0
    while i < len(lines):
        if is_directive_line(lines[i]):
            d = parse_directive(lines[i])
            if d.kind is DirectiveKind.KERNELS and d.is_combined_construct:
                # combined ``kernels loop``: spans the following do nest,
                # with an optional adjacent ``end kernels [loop]``
                j = i + 1
                while j < len(lines) and classify_line(lines[j]) in (
                    LineKind.BLANK, LineKind.COMMENT,
                ):
                    j += 1
                nest = parse_loop_nest(lines, j) if j < len(lines) else None
                if nest is None:
                    raise ValueError(
                        f"combined kernels construct without a loop nest in {file.name} at {i}"
                    )
                end = nest.end
                k = end + 1
                if k < len(lines) and is_directive_line(lines[k]):
                    dk = parse_directive(lines[k])
                    if dk.kind is DirectiveKind.KERNELS and dk.is_region_end:
                        end = k
                out.append(KernelsRegion(file, i, end))
                i = end
            elif d.kind is DirectiveKind.KERNELS and not d.is_region_end:
                j = i + 1
                while j < len(lines):
                    if is_directive_line(lines[j]):
                        dj = parse_directive(lines[j])
                        if dj.kind is DirectiveKind.KERNELS and dj.is_region_end:
                            out.append(KernelsRegion(file, i, j))
                            i = j
                            break
                    j += 1
                else:
                    raise ValueError(
                        f"unterminated kernels region in {file.name} at {i}"
                    )
        i += 1
    return out


def find_directive_lines(
    file: SourceFile, *kinds: DirectiveKind
) -> list[DirectiveLine]:
    """Standalone directives of the given kinds, with continuations."""
    wanted = set(kinds)
    out = []
    for i, ln in enumerate(file.lines):
        if not is_directive_line(ln):
            continue
        d = parse_directive(ln)
        if d.kind in wanted and d.kind is not DirectiveKind.CONTINUATION:
            out.append(
                DirectiveLine(file, i, d, continuations=_continuations(file.lines, i))
            )
    return out


def find_subroutines(file: SourceFile, name_pattern: str | None = None) -> list[SubroutineBlock]:
    """Subroutine blocks, optionally filtered by a name regex."""
    pat = re.compile(name_pattern) if name_pattern else None
    out = []
    start = None
    name = None
    for i, ln in enumerate(file.lines):
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
