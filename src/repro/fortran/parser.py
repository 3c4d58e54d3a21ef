"""Structural parser: finds the regions the porting passes rewrite.

Works on any code in the canonical MAS-like subset: OpenACC parallel
regions wrapping do-loop nests, kernels regions, data/routine/wait
directives with their continuation lines, and subroutine blocks.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.fortran.directives import (
    AccDirective,
    DirectiveKind,
    is_directive_line,
    parse_directive,
    try_parse_directive,
)
from repro.fortran.lexer import KIND_SELECTOR, LineKind, classify_line, subroutine_name
from repro.fortran.source import SourceFile


class RegionKind(enum.Enum):
    """How a parallel region ports to DC (the SIV taxonomy)."""

    PLAIN = "plain"
    SCALAR_REDUCTION = "scalar_reduction"
    ARRAY_REDUCTION = "array_reduction"
    ATOMIC_OTHER = "atomic_other"
    ROUTINE_CALLER = "routine_caller"


class PortSafety(enum.Enum):
    """What a region needs to become valid ``do concurrent``."""

    SAFE_F2018 = "safe_f2018"      # plain DC, no extra clauses
    NEEDS_REDUCE = "needs_reduce"  # F2023 reduce() clause required
    NEEDS_ATOMIC = "needs_atomic"  # atomics (or a reduction flip) required
    UNSAFE = "unsafe"              # loop-carried dependence; do not port


#: RegionKind -> the PortSafety the analyzer must independently reach for
#: the synthetic corpus (the transform-agreement contract).
EXPECTED_SAFETY: dict[RegionKind, PortSafety] = {
    RegionKind.PLAIN: PortSafety.SAFE_F2018,
    RegionKind.ROUTINE_CALLER: PortSafety.SAFE_F2018,
    RegionKind.SCALAR_REDUCTION: PortSafety.NEEDS_REDUCE,
    RegionKind.ARRAY_REDUCTION: PortSafety.NEEDS_ATOMIC,
    RegionKind.ATOMIC_OTHER: PortSafety.NEEDS_ATOMIC,
}


@dataclass(slots=True)
class LoopNest:
    """A nest of ``do`` lines inside a region: [start, end] inclusive."""

    start: int
    end: int
    depth: int
    index_vars: list[str]
    bounds: list[str]

    @property
    def body_range(self) -> tuple[int, int]:
        """[first, last] line indices of the nest body."""
        return (self.start + self.depth, self.end - self.depth)


@dataclass(slots=True)
class ParallelRegion:
    """One ``!$acc parallel`` ... ``!$acc end parallel`` region."""

    file: SourceFile
    start: int  # index of the parallel directive line
    end: int    # index of the end parallel line
    kind: RegionKind
    loops: list[LoopNest] = field(default_factory=list)
    directive_lines: list[int] = field(default_factory=list)  # acc lines inside [start, end]
    atomic_lines: list[int] = field(default_factory=list)


@dataclass(slots=True)
class KernelsRegion:
    """One ``!$acc kernels`` ... ``!$acc end kernels`` region."""

    file: SourceFile
    start: int
    end: int


@dataclass(slots=True)
class DirectiveLine:
    """One standalone directive plus its continuation lines."""

    file: SourceFile
    index: int
    directive: AccDirective
    continuations: list[int] = field(default_factory=list)

    @property
    def all_lines(self) -> list[int]:
        """Directive line plus continuations."""
        return [self.index, *self.continuations]


@dataclass(slots=True)
class SubroutineBlock:
    """A subroutine from its start line to ``end subroutine``."""

    file: SourceFile
    start: int
    end: int
    name: str


_DO_RE = re.compile(r"^\s*do\s+(\w+)\s*=\s*(.+)$", re.I)
_ARRAY_ACCUM_RE = re.compile(r"^\s*\w+\(\w+\)\s*=\s*\w+\(\w+\)\s*\+")

# -- procedure headers and declarations ---------------------------------------

_HEADER_RE = re.compile(
    r"^\s*(?P<prefix>(?:(?:pure|impure|elemental|recursive)\s+)*)"
    r"(?:(?:real|integer|logical|complex|double\s+precision|character|type)"
    rf"\s*(?:{KIND_SELECTOR})?\s+)?"
    r"(?P<kind>subroutine|function)\s+(?P<name>\w+)\s*"
    r"(?:\((?P<args>[^)]*)\))?"
    r"(?:\s*result\s*\(\s*(?P<result>\w+)\s*\))?",
    re.I,
)
_TYPE_DECL_RE = re.compile(
    r"^\s*(?:real|integer|logical|complex|double\s+precision|character"
    r"|type\s*\(\s*\w+\s*\))\s*(?:\([^)]*\))?\s*"
    r"(?P<attrs>(?:\s*,\s*[\w()=:,+\-* ]+?)*)\s*::\s*(?P<names>.+)$",
    re.I,
)
_INTENT_RE = re.compile(r"\bintent\s*\(\s*(in\s*out|inout|in|out)\s*\)", re.I)
_ENTITY_RE = re.compile(r"[A-Za-z_]\w*")


@dataclass(frozen=True, slots=True)
class ProcedureHeader:
    """Parsed ``subroutine``/``function`` start line."""

    name: str
    kind: str                   # "subroutine" | "function"
    prefixes: tuple[str, ...]   # pure/impure/elemental/recursive, lowercased
    dummies: tuple[str, ...]    # dummy argument names, lowercased
    result: str = ""            # result variable of a function ("" = name)

    @property
    def declared_pure(self) -> bool:
        """Declared ``pure`` (or ``elemental``, which implies pure unless
        explicitly ``impure elemental``)."""
        if "impure" in self.prefixes:
            return False
        return "pure" in self.prefixes or "elemental" in self.prefixes


def parse_procedure_header(line: str) -> ProcedureHeader | None:
    """Parse a procedure start line into its header, else None."""
    m = _HEADER_RE.match(line)
    if m is None:
        return None
    prefixes = tuple(m.group("prefix").lower().split())
    args = m.group("args") or ""
    dummies = tuple(
        a.strip().lower() for a in args.split(",") if a.strip()
    )
    kind = m.group("kind").lower()
    result = (m.group("result") or "").lower()
    if kind == "function" and not result:
        result = m.group("name").lower()
    return ProcedureHeader(
        name=m.group("name").lower(), kind=kind,
        prefixes=prefixes, dummies=dummies,
        result=result if kind == "function" else "",
    )


def declared_entities(line: str) -> tuple[str, ...]:
    """Entity names a type-declaration line declares (lowercased).

    ``real(r_typ), dimension(n), intent(in) :: x, y(3) = 0`` yields
    ``("x", "y")``; non-declaration lines yield ``()``.
    """
    m = _TYPE_DECL_RE.match(line.split("!", 1)[0])
    if m is None:
        return ()
    names: list[str] = []
    depth = 0
    token = ""
    for ch in m.group("names") + ",":
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            head = token.split("=")[0].strip()
            ident = _ENTITY_RE.match(head)
            if ident:
                names.append(ident.group(0).lower())
            token = ""
            continue
        token += ch
    return tuple(names)


def declared_intent(line: str) -> str:
    """The ``intent(...)`` a declaration line carries ("" when none)."""
    m = _INTENT_RE.search(line.split("!", 1)[0])
    if m is None:
        return ""
    return "".join(m.group(1).lower().split())


class LineScan:
    """One file's lines as one text, to find the few lines a scan must
    classify; its ``!$acc`` lines, each parsed once; and its loop table.
    The finders of a pass that read the same unedited lines share one; an
    edit calls for a new one, and none outlives its pass."""

    __slots__ = ("lines", "text", "_folded", "_rows", "_directives", "_loops", "_dc_headers")

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.text = "\n".join(lines)
        self._folded: str | None = None
        self._rows: dict[tuple[str, bool], list[int]] = {}
        self._directives: dict[int, AccDirective | None] | None = None
        self._loops: dict[int, int | None] | None = None
        self._dc_headers: list[int] | None = None

    def rows(self, keyword: str, *, fold: bool = False) -> list[int]:
        """Indices of the lines holding ``keyword`` (with ``fold``, the
        lower-case ``keyword`` in their ``lower()``): one ``str.find`` per
        hit, placed by counting newlines, since ``lower()`` may lengthen
        a line (``İ``) but never makes or drops one. Each keyword is
        searched once per scan."""
        if (keyword, fold) in self._rows:
            return self._rows[keyword, fold]
        if fold and self._folded is None:
            self._folded = self.text.lower()
        text = self._folded if fold else self.text
        out: list[int] = []
        row = eol = 0
        hit = text.find(keyword)
        while hit >= 0:
            row += text.count("\n", eol, hit)
            out.append(row)
            eol = text.find("\n", hit)
            if eol < 0:
                break
            hit = text.find(keyword, eol)
        self._rows[keyword, fold] = out
        return out

    @property
    def directives(self) -> dict[int, AccDirective | None]:
        """Each ``!$acc`` line in order -> its directive (None: does not
        parse), found by the sentinel's ``$``, a one-character search."""
        if self._directives is None:
            lines = self.lines
            self._directives = {
                i: try_parse_directive(lines[i])
                for i in self.rows("$")
                if is_directive_line(lines[i])
            }
        return self._directives

    def directive(self, i: int) -> AccDirective:
        """The directive on line ``i``; raises as :func:`parse_directive`."""
        d = self.directives.get(i)
        return d if d is not None else parse_directive(self.lines[i])

    @property
    def loops(self) -> dict[int, int | None]:
        """The loop table: each ``do`` and ``do concurrent`` header in
        order -> the ``enddo`` that closes it (None: unterminated).

        One stack pass over the lines holding ``do`` pairs them: a header
        is pushed, an ``enddo`` pops the innermost open header (or closes
        nothing when none is open). A header pops exactly where a level
        count started at it returns to zero, so its end is the one a walk
        from the header finds."""
        if self._loops is None:
            self._loops = {}
            open_headers: list[int] = []
            for i in self.rows("do", fold=True):
                kind = classify_line(self.lines[i])
                if kind is LineKind.DO or kind is LineKind.DO_CONCURRENT:
                    self._loops[i] = None
                    open_headers.append(i)
                elif kind is LineKind.ENDDO and open_headers:
                    self._loops[open_headers.pop()] = i
        return self._loops

    @property
    def dc_headers(self) -> list[int]:
        """The ``do concurrent`` headers of the loop table, in order,
        found by their rarer keyword: a file without one pairs no loops
        for a scan that wants only these."""
        if self._dc_headers is None:
            self._dc_headers = [
                i for i in self.rows("concurrent", fold=True)
                if classify_line(self.lines[i]) is LineKind.DO_CONCURRENT
            ]
        return self._dc_headers

    def dc_end(self, i: int) -> int:
        """The ``enddo`` of the ``do concurrent`` loop at ``i``; raises
        ValueError when it is unterminated."""
        end = self.loops[i]
        if end is None:
            raise ValueError(f"unterminated do concurrent at line {i}")
        return end


def _continuations(scan: LineScan, idx: int) -> list[int]:
    """Indices of ``!$acc&`` lines directly following ``idx``."""
    out = []
    j = idx + 1
    while (d := scan.directives.get(j)) is not None and d.kind is DirectiveKind.CONTINUATION:
        out.append(j)
        j += 1
    return out


def parse_loop_nest(scan: LineScan, start: int) -> LoopNest | None:
    """Parse a rectangular ``do`` nest beginning at ``start``; it ends at
    the ``enddo`` the loop table gives its outermost header (every line
    ``_DO_RE`` matches classifies as a ``do`` header)."""
    lines = scan.lines
    idx_vars: list[str] = []
    bounds: list[str] = []
    i = start
    while i < len(lines) and (m := _DO_RE.match(lines[i])) is not None:
        idx_vars.append(m.group(1))
        bounds.append(m.group(2).strip())
        i += 1
    if not idx_vars:
        return None
    end = scan.loops[start]
    if end is None:
        raise ValueError(f"unterminated do nest at line {start}")
    return LoopNest(start, end, len(idx_vars), idx_vars, bounds)


def split_paren_args(header: str) -> tuple[str, str]:
    """Split ``do concurrent (args) trailing`` -> (args, trailing)."""
    start = header.index("(")
    depth = 0
    for i in range(start, len(header)):
        if header[i] == "(":
            depth += 1
        elif header[i] == ")":
            depth -= 1
            if depth == 0:
                return header[start + 1 : i], header[i + 1 :]
    raise ValueError(f"unbalanced parens in DC header: {header!r}")


def _classify_region(
    scan: LineScan, start: int, end: int, directive_lines: list[int], atomic_lines: list[int]
) -> RegionKind:
    lines = scan.lines
    for i in directive_lines:
        d = scan.directive(i)
        if d.kind is DirectiveKind.PARALLEL_LOOP and d.has_clause("reduction"):
            return RegionKind.SCALAR_REDUCTION
    if atomic_lines:
        for i in atomic_lines:
            j = i + 1
            if j <= end and _ARRAY_ACCUM_RE.match(lines[j]):
                return RegionKind.ARRAY_REDUCTION
        return RegionKind.ATOMIC_OTHER
    calls = scan.rows("call", fold=True)
    for i in calls[bisect_left(calls, start) : bisect_right(calls, end)]:
        if classify_line(lines[i]) is LineKind.CALL:
            return RegionKind.ROUTINE_CALLER
    return RegionKind.PLAIN


def _combined_region(
    file: SourceFile, start: int, scan: LineScan, acc: list[int]
) -> ParallelRegion:
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
            scan.directive(j).kind is DirectiveKind.CONTINUATION
        ):
            j += 1
            continue
        if kind in (LineKind.BLANK, LineKind.COMMENT):
            j += 1
            continue
        break
    nest = parse_loop_nest(scan, j) if j < len(lines) else None
    if nest is None:
        raise ValueError(
            f"combined construct without a loop nest in {file.name} at {start}"
        )
    end = nest.end
    k = end + 1
    if k in scan.directives:
        dk = scan.directive(k)
        if dk.kind is DirectiveKind.PARALLEL_LOOP and dk.is_region_end:
            end = k
    directive_lines = acc[bisect_left(acc, start) : bisect_right(acc, end)]
    atomic_lines = [
        m for m in directive_lines
        if scan.directive(m).kind is DirectiveKind.ATOMIC
    ]
    kind = _classify_region(scan, start, end, directive_lines, atomic_lines)
    return ParallelRegion(
        file=file, start=start, end=end, kind=kind, loops=[nest],
        directive_lines=directive_lines, atomic_lines=atomic_lines,
    )


def find_parallel_regions(file: SourceFile, scan: LineScan | None = None) -> list[ParallelRegion]:
    """All parallel regions in a file, classified and with their loops.
    Like every finder, it visits only the lines ``scan`` finds for it."""
    lines = file.lines
    scan = scan or LineScan(lines)
    acc = list(scan.directives)
    regions: list[ParallelRegion] = []
    p = 0
    while p < len(acc):
        start = acc[p]
        d = scan.directive(start)
        if d.kind is not DirectiveKind.PARALLEL_LOOP or not d.is_region_start:
            p += 1
            continue
        if d.is_combined_construct:
            region = _combined_region(file, start, scan, acc)
        else:
            q = p + 1
            while q < len(acc):
                dq = scan.directive(acc[q])
                if dq.kind is DirectiveKind.PARALLEL_LOOP and dq.is_region_end:
                    break
                q += 1
            else:
                raise ValueError(f"unterminated parallel region in {file.name} at {start}")
            end = acc[q]
            directive_lines = acc[p : q + 1]
            atomic_lines = [
                k
                for k in directive_lines
                if scan.directive(k).kind is DirectiveKind.ATOMIC
            ]
            loops = []
            k = start + 1
            while k < end:
                if k in scan.loops and classify_line(lines[k]) is LineKind.DO:
                    nest = parse_loop_nest(scan, k)
                    if nest is not None and nest.end < end:
                        loops.append(nest)
                        k = nest.end + 1
                        continue
                k += 1
            kind = _classify_region(scan, start, end, directive_lines, atomic_lines)
            region = ParallelRegion(
                file=file,
                start=start,
                end=end,
                kind=kind,
                loops=loops,
                directive_lines=directive_lines,
                atomic_lines=atomic_lines,
            )
        regions.append(region)
        p = bisect_right(acc, region.end, p)
    return regions


def find_kernels_regions(file: SourceFile, scan: LineScan | None = None) -> list[KernelsRegion]:
    """All ``!$acc kernels`` regions in a file."""
    lines = file.lines
    scan = scan or LineScan(lines)
    acc = list(scan.directives)
    out = []
    p = 0
    while p < len(acc):
        i = acc[p]
        p += 1
        d = scan.directive(i)
        if d.kind is not DirectiveKind.KERNELS or d.is_region_end:
            continue
        if d.is_combined_construct:
            # combined ``kernels loop``: spans the following do nest,
            # with an optional adjacent ``end kernels [loop]``
            j = i + 1
            while j < len(lines) and classify_line(lines[j]) in (
                LineKind.BLANK, LineKind.COMMENT,
            ):
                j += 1
            nest = parse_loop_nest(scan, j) if j < len(lines) else None
            if nest is None:
                raise ValueError(
                    f"combined kernels construct without a loop nest in {file.name} at {i}"
                )
            end = nest.end
            k = end + 1
            if k in scan.directives:
                dk = scan.directive(k)
                if dk.kind is DirectiveKind.KERNELS and dk.is_region_end:
                    end = k
        else:
            for q in range(p, len(acc)):
                dq = scan.directive(acc[q])
                if dq.kind is DirectiveKind.KERNELS and dq.is_region_end:
                    end = acc[q]
                    break
            else:
                raise ValueError(
                    f"unterminated kernels region in {file.name} at {i}"
                )
        out.append(KernelsRegion(file, i, end))
        p = bisect_right(acc, end, p)
    return out


def find_directive_lines(
    file: SourceFile, *kinds: DirectiveKind, scan: LineScan | None = None
) -> list[DirectiveLine]:
    """Standalone directives of the given kinds, with continuations."""
    scan = scan or LineScan(file.lines)
    wanted = set(kinds)
    out = []
    for i in scan.directives:
        d = scan.directive(i)
        if d.kind in wanted and d.kind is not DirectiveKind.CONTINUATION:
            out.append(DirectiveLine(file, i, d, continuations=_continuations(scan, i)))
    return out


def find_subroutines(
    file: SourceFile, name_pattern: str | None = None, scan: LineScan | None = None
) -> list[SubroutineBlock]:
    """Subroutine blocks, optionally filtered by a name regex."""
    pat = re.compile(name_pattern) if name_pattern else None
    out = []
    start = None
    name = None
    # only a line mentioning ``subroutine`` can start or end one
    for i in (scan or LineScan(file.lines)).rows("subroutine", fold=True):
        ln = file.lines[i]
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


def apply_edits(
    file: SourceFile, edits: list[tuple[int, int, list[str]]]
) -> None:
    """Apply (start, end_inclusive, replacement) edits to a file in place.

    Edits must not overlap; they are applied bottom-up so indices stay
    valid.
    """
    edits = sorted(edits, key=lambda e: e[0], reverse=True)
    last_start = None
    for start, end, replacement in edits:
        if end < start:
            raise ValueError("edit end before start")
        if last_start is not None and end >= last_start:
            raise ValueError("overlapping edits")
        file.lines[start : end + 1] = replacement
        last_start = start
