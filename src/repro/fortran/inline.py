"""Routine inliner (what ``-Minline`` does, done manually).

Code 5 removes ``!$acc routine`` directives by inlining the pure routines
called inside DC loops. nvfortran's ``-Minline`` handles all but one; that
one the paper's authors inlined by hand (SIV-E). This module implements
the by-hand path: parse the routine's dummy arguments, substitute actuals,
splice the body into the call site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.fortran.directives import is_directive_line
from repro.fortran.lexer import LineKind, classify_line
from repro.fortran.source import SourceFile

_SUB_SIG_RE = re.compile(r"^\s*(?:pure\s+)?subroutine\s+(\w+)\s*\(([^)]*)\)", re.I)
_CALL_RE = re.compile(r"^(\s*)call\s+(\w+)\s*\(([^)]*)\)\s*$", re.I)
_DECL_RE = re.compile(r"^\s*(real|integer|logical|character)\b.*::", re.I)
_WORD_RE = re.compile(r"\b\w+\b")


class InlineRefusedError(RuntimeError):
    """The inliner cannot safely inline this routine.

    Mirrors nvfortran refusing to inline (reshape arguments, assumed-shape
    mismatches): callers must then inline manually or keep the directive.
    """


@dataclass(frozen=True, slots=True)
class RoutineBody:
    """A parsed routine: name, dummy arguments, executable body lines."""

    name: str
    dummies: tuple[str, ...]
    body: tuple[str, ...]


def parse_routine(file: SourceFile, start: int) -> RoutineBody:
    """Parse the routine whose ``subroutine`` line is at ``start``."""
    m = _SUB_SIG_RE.match(file.lines[start])
    if not m:
        raise ValueError(f"not a subroutine start: {file.lines[start]!r}")
    name = m.group(1)
    dummies = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
    body: list[str] = []
    i = start + 1
    while i < len(file.lines):
        ln = file.lines[i]
        if classify_line(ln) is LineKind.SUBROUTINE_END:
            return RoutineBody(name, dummies, tuple(body))
        if not is_directive_line(ln) and not _DECL_RE.match(ln):
            body.append(ln)
        i += 1
    raise ValueError(f"unterminated subroutine {name!r}")


def substitute(line: str, mapping: dict[str, str]) -> str:
    """Word-boundary substitution of dummy names by actual arguments."""
    def repl(m: re.Match) -> str:
        return mapping.get(m.group(0), m.group(0))

    return _WORD_RE.sub(repl, line)


def inline_call(file: SourceFile, call_idx: int, routine: RoutineBody) -> int:
    """Replace the ``call`` at ``call_idx`` with the routine body.

    Returns the number of lines the file grew by. Raises
    :class:`InlineRefusedError` if the call is not a simple positional
    call to the routine.
    """
    m = _CALL_RE.match(file.lines[call_idx])
    if not m or m.group(2) != routine.name:
        raise InlineRefusedError(
            f"line {call_idx} is not a plain call to {routine.name!r}"
        )
    actuals = [a.strip() for a in m.group(3).split(",") if a.strip()]
    if len(actuals) != len(routine.dummies):
        raise InlineRefusedError(
            f"call to {routine.name!r} passes {len(actuals)} args, "
            f"routine has {len(routine.dummies)} dummies"
        )
    mapping = dict(zip(routine.dummies, actuals))
    indent = m.group(1)
    body = [indent + substitute(ln, mapping).lstrip() for ln in routine.body]
    file.lines[call_idx : call_idx + 1] = body
    return len(body) - 1
