"""Line-level classification of the Fortran subset the transforms touch."""

from __future__ import annotations

import enum
import re

from repro.fortran.directives import ACC_SENTINEL


class LineKind(enum.Enum):
    """What a source line structurally is."""

    BLANK = "blank"
    COMMENT = "comment"
    DIRECTIVE = "directive"
    DO = "do"
    DO_CONCURRENT = "do_concurrent"
    ENDDO = "enddo"
    SUBROUTINE_START = "subroutine_start"
    SUBROUTINE_END = "subroutine_end"
    FUNCTION_START = "function_start"
    FUNCTION_END = "function_end"
    MODULE_START = "module_start"
    MODULE_END = "module_end"
    CONTAINS = "contains"
    CALL = "call"
    STATEMENT = "statement"


_DO_CONCURRENT = re.compile(r"^\s*do\s+concurrent\b", re.I)
_DO = re.compile(r"^\s*do\s+\w+\s*=", re.I)
#: ``do while (...)`` and the bare ``do`` infinite loop: not parallelizable
#: nests, but they end in ``enddo`` so the loop table must pair them.
#: (Labeled ``do 100 i=...`` loops terminate on their label, not ``enddo``,
#: and stay invisible -- both the header and the terminator.)
_DO_OTHER = re.compile(r"^\s*do\s*(while\b[^!]*)?(!.*)?$", re.I)
#: ``end`` and what it closes, with or without a blank between them:
#: ``enddo`` and ``endsubroutine`` are as legal as ``end do``.
_END = re.compile(r"^\s*end\s*(do|subroutine|function|module)\b", re.I)
#: A bare ``end`` closes the innermost program unit, and the line does not
#: say which. It classifies as the end of a procedure, the scope a routine
#: walker (``inline.parse_routine``) is waiting to close; ``end module``
#: and ``end program`` are normally spelled out.
_BARE_END = re.compile(r"^\s*end\s*(!.*)?$", re.I)
_END_KINDS = {
    "do": LineKind.ENDDO,
    "subroutine": LineKind.SUBROUTINE_END,
    "function": LineKind.FUNCTION_END,
    "module": LineKind.MODULE_END,
}
#: Procedure prefixes: any combination of purity/recursion attributes
#: (``pure elemental subroutine``, ``impure elemental function`` ...).
_PREFIXES = r"(?:(?:pure|impure|elemental|recursive)\s+)*"
_SUB_START = re.compile(rf"^\s*({_PREFIXES})subroutine\s+(\w+)", re.I)
#: A kind selector may hold ``=`` (``real(kind=8) function f(x)``) and one
#: level of call parentheses (``real(selected_real_kind(8))``); outside it,
#: everything before the keyword is prefix and type words.
KIND_SELECTOR = r"\((?:[^()]|\([^()]*\))*\)"
_FUN_START = re.compile(
    rf"^\s*({_PREFIXES})"
    r"(real|integer|logical|complex|double\s+precision|character|type)?"
    rf"\s*({KIND_SELECTOR})?\s*function\s+(\w+)",
    re.I,
)
_MOD_START = re.compile(r"^\s*module\s+(\w+)", re.I)
_CONTAINS = re.compile(r"^\s*contains\s*$", re.I)
_CALL = re.compile(r"^\s*call\s+(\w+)", re.I)


#: What a line that is not a plain statement can begin with, lowercased.
#: Every pattern above is ``^\s*`` followed by a literal, so starting with
#: one of these is a necessary condition for each of them; ``_FUN_START``
#: may open with a prefix attribute, a type keyword (``double precision``
#: comes in under ``do``), a bare kind selector or ``function`` itself.
#: The longest head (``subroutine``) sets the slice.
_SUB_HEADS = ("pure", "impure", "elemental", "recursive", "subroutine")
_HEADS = (
    "do", "end", "call", "contains", "module", *_SUB_HEADS, "function", "(",
    "real", "integer", "logical", "complex", "character", "type",
)
_HEAD_LEN = max(map(len, _HEADS))


def classify_line(line: str) -> LineKind:
    """Classify one line of the Fortran subset.

    Dispatches on the head keyword: a line that starts with none of
    ``_HEADS`` is a statement with no regex attempt, and a keyword line
    tries only its own family's patterns.
    """
    text = line.lstrip()
    if not text:
        return LineKind.BLANK
    if text[0] == "!":
        if text[:5].lower() == ACC_SENTINEL:
            return LineKind.DIRECTIVE
        return LineKind.COMMENT
    head = text[:_HEAD_LEN].lower()
    if not head.startswith(_HEADS):
        return LineKind.STATEMENT
    if head.startswith("do"):
        if _DO_CONCURRENT.match(line):
            return LineKind.DO_CONCURRENT
        if _DO.match(line) or _DO_OTHER.match(line):
            return LineKind.DO
        # ``double precision function`` is in the function family below
    elif head.startswith("end"):
        m = _END.match(line)
        if m is None:
            return LineKind.SUBROUTINE_END if _BARE_END.match(line) else LineKind.STATEMENT
        # .get: re.I also folds a few non-ASCII letters that lower() keeps
        return _END_KINDS.get(m.group(1).lower(), LineKind.STATEMENT)
    elif head.startswith("call"):
        return LineKind.CALL if _CALL.match(line) else LineKind.STATEMENT
    elif head.startswith("contains"):
        return LineKind.CONTAINS if _CONTAINS.match(line) else LineKind.STATEMENT
    elif head.startswith("module"):
        return LineKind.MODULE_START if _MOD_START.match(line) else LineKind.STATEMENT
    if head.startswith(_SUB_HEADS) and _SUB_START.match(line):
        return LineKind.SUBROUTINE_START
    return LineKind.FUNCTION_START if _FUN_START.match(line) else LineKind.STATEMENT


def subroutine_name(line: str) -> str | None:
    """Name of a subroutine-start line, else None."""
    m = _SUB_START.match(line)
    return m.group(2) if m else None


def module_name(line: str) -> str | None:
    """Name after ``module`` on a module-start line (``procedure`` for a
    ``module procedure`` statement), else None."""
    m = _MOD_START.match(line)
    return m.group(1) if m else None


def called_name(line: str) -> str | None:
    """Callee of a ``call`` statement line, else None."""
    m = _CALL.match(line)
    return m.group(1) if m else None
