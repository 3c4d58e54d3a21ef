"""Interprocedural symbol resolution over a lowered tree.

Builds the cross-file picture the per-line IR cannot see: which file
defines each module, which files ``use`` it (including ``only:`` lists
and ``=>`` renames), and where every subroutine or function lives --
with its body extent, ``contains`` nesting, purity prefixes, and whether
it carries an ``!$acc routine`` directive (callable from device
regions). Interface blocks are skipped: the signatures inside them
declare, they do not define.

Each file contributes an :class:`IndexFragment`; :func:`join_index`
joins fragments in file order. Each file's fragment is kept in its
cached fact sheet (:mod:`repro.analysis.facts`), built from the file's
:class:`~repro.fortran.parser.LineScan`; the analyzer and the front end
both join the index from the sheets they hold.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.fortran.directives import DirectiveKind, try_parse_directive
from repro.fortran.lexer import LineKind, classify_line, module_name
from repro.fortran.parser import LineScan, parse_procedure_header
from repro.fortran.source import SourceFile

_USE_RE = re.compile(
    r"^\s*use\s*(?:,\s*\w+\s*::)?\s*(\w+)\s*(?:,\s*only\s*:\s*(.*))?$", re.I
)
_INTERFACE_RE = re.compile(r"^\s*(abstract\s+)?interface\b", re.I)
_END_INTERFACE_RE = re.compile(r"^\s*end\s*interface\b", re.I)
_NAME_RE = re.compile(r"\w+")


@dataclass(frozen=True, slots=True)
class RoutineSym:
    """One subroutine/function definition site."""

    name: str
    kind: str          # "subroutine" | "function"
    file: str
    line: int          # 0-based definition line
    module: str = ""   # enclosing module, if any
    acc_routine: bool = False  # carries !$acc routine
    end_line: int = -1         # 0-based end subroutine/function line
    parent: str = ""           # host routine for contains-nested routines
    declared_pure: bool = False
    dummies: tuple[str, ...] = ()
    result: str = ""           # function result variable ("" for subroutines)


@dataclass(frozen=True, slots=True)
class UseEdge:
    """One ``use`` statement: the module plus any only-list/renames."""

    module: str
    #: ``only:`` imports as (local name, name inside the module) pairs;
    #: empty means the whole module is imported unrenamed.
    only: tuple[tuple[str, str], ...] = ()

    def local_names(self) -> dict[str, str]:
        """Map of local name -> module-side name (empty = import all)."""
        return dict(self.only)


@dataclass(slots=True)
class ModuleIndex:
    """Modules, routines and ``use`` edges across a codebase."""

    modules: dict[str, str] = field(default_factory=dict)   # module -> file
    routines: dict[str, RoutineSym] = field(default_factory=dict)
    uses: dict[str, list[str]] = field(default_factory=dict)  # file -> modules
    #: file -> detailed use edges (only-lists and renames preserved)
    use_edges: dict[str, list[UseEdge]] = field(default_factory=dict)
    unresolved_uses: list[tuple[str, int, str]] = field(default_factory=list)

    def resolve_call(self, name: str, file: str | None = None) -> RoutineSym | None:
        """Definition site of a called routine, if the tree defines it.

        With ``file``, ``use ..., only: local => actual`` renames visible
        in that file are applied first, so renamed imports resolve to
        their real definition.
        """
        key = name.lower()
        if file is not None:
            for edge in self.use_edges.get(file, ()):
                actual = edge.local_names().get(key)
                if actual is not None and actual != key:
                    key = actual
                    break
        return self.routines.get(key)


#: What closes a routine's declaration part for the ``!$acc routine`` test.
_SPEC_STOPS = (LineKind.DO, LineKind.DO_CONCURRENT, LineKind.CALL,
               LineKind.SUBROUTINE_END, LineKind.FUNCTION_END, LineKind.CONTAINS)


def _routine_block_has_acc(
    lines: list[str], start: int, routines: list[int], stops: list[int]
) -> bool:
    """True if an ``!$acc routine`` sits in the routine's declaration part,
    which runs from ``start`` to the first line that opens a loop, calls,
    ends a procedure or says ``contains``.

    ``routines`` are the file's ``!$acc routine`` lines and ``stops`` the
    lines that can end the part (those holding ``do``, ``call``, ``end``
    or ``contains``): only the stops before the first routine line past
    ``start`` are classified.
    """
    at = bisect_right(routines, start)
    if at == len(routines):
        return False
    first = routines[at]
    return not any(
        classify_line(lines[i]) in _SPEC_STOPS
        for i in stops[bisect_right(stops, start) : bisect_left(stops, first)]
    )


def _parse_use(line: str) -> UseEdge | None:
    m = _USE_RE.match(line.split("!", 1)[0].rstrip())
    if m is None:
        return None
    only: list[tuple[str, str]] = []
    if m.group(2) is not None:
        for item in m.group(2).split(","):
            item = item.strip()
            if not item:
                continue
            if "=>" in item:
                local, _, actual = (p.strip() for p in item.partition("=>"))
            else:
                local = actual = item
            if _NAME_RE.fullmatch(local) and _NAME_RE.fullmatch(actual):
                only.append((local.lower(), actual.lower()))
    return UseEdge(module=m.group(1).lower(), only=tuple(only))


@dataclass(frozen=True, slots=True)
class IndexFragment:
    """What one file contributes to the symbol index, in source order."""

    file: str
    modules: tuple[str, ...] = ()
    #: closed routines, in the order their ends appear (children first)
    routines: tuple[RoutineSym, ...] = ()
    uses: tuple[tuple[int, UseEdge], ...] = ()  # (0-based line, edge)


#: The keywords :func:`index_fragment` tests a line's ``lower()`` for
#: before it tries a pattern: a line holding none of them is skipped.
#: ``nterface`` leaves the ``i`` out, since ``re.I`` also reads ``ı`` as
#: ``i`` and ``lower()`` keeps it (as the front end's interface pass does).
_INDEX_KEYWORDS = ("nterface", "module", "subroutine", "function", "end", "use")


def index_fragment(file: SourceFile, scan: LineScan | None = None) -> IndexFragment:
    """Scan one file for its modules, routines and ``use`` edges; only the
    lines of ``scan`` (made here when not given) holding a keyword of
    ``_INDEX_KEYWORDS`` are classified."""
    if scan is None:
        scan = LineScan(file.lines)
    modules: list[str] = []
    routines: list[RoutineSym] = []
    uses: list[tuple[int, UseEdge]] = []
    current_module = ""
    in_interface = False
    open_routines: list[RoutineSym] = []  # contains-nesting stack
    acc_routines = [  # a routine directive's payload starts with `routine`
        i for i in scan.rows("routine", fold=True)
        if (d := try_parse_directive(file.lines[i])) is not None
        and d.kind is DirectiveKind.ROUTINE
    ]
    stops = sorted({
        i for kw in ("do", "call", "end", "contains") for i in scan.rows(kw, fold=True)
    }) if acc_routines else []
    rows = sorted({i for kw in _INDEX_KEYWORDS for i in scan.rows(kw, fold=True)})
    for i in rows:
        line = file.lines[i]
        low = line.lower()
        if "nterface" in low:
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
                acc_routine=_routine_block_has_acc(file.lines, i, acc_routines, stops),
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


def join_index(fragments: Iterable[IndexFragment]) -> ModuleIndex:
    """The cross-file symbol index: fragments joined in file order, the
    first definition of a module or routine name winning."""
    index = ModuleIndex()
    fragments = list(fragments)
    for frag in fragments:
        for name in frag.modules:
            index.modules.setdefault(name, frag.file)
        for sym in frag.routines:
            index.routines.setdefault(sym.name, sym)
        if frag.uses:
            edges = [edge for _i, edge in frag.uses]
            index.uses.setdefault(frag.file, []).extend(e.module for e in edges)
            index.use_edges.setdefault(frag.file, []).extend(edges)
    for frag in fragments:
        for i, edge in frag.uses:
            if edge.module not in index.modules:
                index.unresolved_uses.append((frag.file, i, edge.module))
    return index
