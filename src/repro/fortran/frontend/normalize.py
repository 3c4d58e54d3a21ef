"""Line-count-preserving normalization of real free-form Fortran.

Every transformation here replaces lines in place -- the physical line
count of a file never changes, so line numbers in findings, fixes and
the census all refer to the on-disk source. Joined continuations leave
filler comment lines behind; nothing is deleted.

A pass visits only the lines it can change, found in a
:class:`~repro.fortran.parser.LineScan` of the lines as the pass starts.
Line endings are cleaned over the file's text (``expandtabs`` resets its
column at every newline, so the text expands as its lines do). The
sentinel and directive-continuation passes read the ``$`` rows, as every
sentinel holds one; a statement continuation starts only on an ``&`` row,
as its head ends in one. The fixed-form passes, for the rare ``.f``
files, visit every line.
"""

from __future__ import annotations

import re

from repro.fortran.directives import is_directive_line
from repro.fortran.parser import LineScan
from repro.fortran.source import Codebase, SourceFile

#: What a consumed continuation line is replaced with. Starts with ``!``
#: so every layer treats it as a comment; carries the head line (1-based)
#: for humans reading the normalized tree.
FILLER_PREFIX = "! repro-fe: joined into line "

_SENTINEL_RE = re.compile(r"^(\s*)!\$acc(&?)", re.I)
_OMP_SENTINEL_RE = re.compile(r"^\s*!\$omp", re.I)

#: Suffixes treated as fixed-form (column-1 comments, column-6
#: continuations). Everything else is free-form.
_FIXED_SUFFIXES = (".f", ".for", ".f77", ".ftn")


def _code_part(line: str) -> str:
    """The code before a trailing ``!`` comment (naive: ignores strings)."""
    return line.split("!", 1)[0]


def _is_code_line(line: str) -> bool:
    stripped = line.lstrip()
    return bool(stripped) and not stripped.startswith("!")


def _normalize_endings(lines: list[str]) -> None:
    """Strip CRLF remnants and trailing whitespace, expand tabs: over the
    file's text, since ``expandtabs`` resets its column at every newline."""
    if lines:
        text = "\n".join(lines).replace("\r", "").expandtabs(4)
        lines[:] = [ln.rstrip() for ln in text.split("\n")]


def _normalize_sentinels(lines: list[str]) -> None:
    """Lowercase directive lines (``!$ACC PARALLEL`` -> ``!$acc parallel``).

    Fortran and OpenACC are case-insensitive, and the clause scanners in
    the analyzer are not uniformly so; lowering the whole directive line
    is semantics-preserving and makes them all hit. OpenMP sentinels stay
    untouched -- they are plain comments to this front end.
    """
    for i in LineScan(lines).rows("$"):
        ln = lines[i]
        if _SENTINEL_RE.match(ln) and not _OMP_SENTINEL_RE.match(ln):
            lines[i] = ln.lower()


def _join_directive_continuations(lines: list[str]) -> None:
    """Canonicalize trailing-``&`` directive continuations.

    ``!$acc parallel loop &`` followed by ``!$acc collapse(2)`` or
    ``!$acc& collapse(2)`` becomes ``!$acc parallel loop`` +
    ``!$acc& collapse(2)`` -- the two-line shape the canonical parser
    already understands, without moving any text across lines.
    """
    for i in LineScan(lines).rows("$"):
        ln = lines[i]  # as an earlier continuation may have left it
        if not is_directive_line(ln):
            continue
        if not ln.rstrip().endswith("&"):
            continue
        nxt = i + 1
        if nxt >= len(lines) or not is_directive_line(lines[nxt]):
            continue  # dangling & -- leave it; lower() will degrade it
        lines[i] = ln.rstrip()[:-1].rstrip()
        m = _SENTINEL_RE.match(lines[nxt])
        if m and not m.group(2):
            # continuation spelled with a bare sentinel: add the &
            rest = lines[nxt][m.end():].lstrip()
            if rest.startswith("&"):
                rest = rest[1:].lstrip()
            lines[nxt] = f"{m.group(1)}!$acc& {rest}"


def _join_statement_continuations(lines: list[str]) -> int:
    """Join ``&`` statement continuations onto their first physical line.

    Consumed physical lines become filler comments so the line count is
    preserved. Returns the number of lines joined away.
    """
    joined = 0
    for i in LineScan(lines).rows("&"):
        line = lines[i]  # a line a head consumed is a filler comment now
        if not _is_code_line(line) or is_directive_line(line):
            continue
        if not _code_part(line).rstrip().endswith("&"):
            continue
        head = _code_part(line).rstrip()[:-1].rstrip()
        j = i + 1
        while j < len(lines):
            nxt = lines[j]
            if not _is_code_line(nxt):
                j += 1
                continue  # blank/comment between continuations: legal
            part = _code_part(nxt).strip()
            if part.startswith("&"):
                part = part[1:].lstrip()
            more = part.endswith("&")
            if more:
                part = part[:-1].rstrip()
            head = f"{head} {part}".rstrip()
            lines[j] = f"{FILLER_PREFIX}{i + 1}"
            joined += 1
            j += 1
            if not more:
                break
        lines[i] = head
    return joined


def is_fixed_form(name: str) -> bool:
    """Fixed-form source, judged by suffix (the compilers' convention)."""
    return name.lower().endswith(_FIXED_SUFFIXES)


def _fixed_comments(lines: list[str]) -> None:
    """Convert column-1 fixed-form comment markers to ``!``.

    ``*`` in column 1 is always a comment; ``c``/``C`` only when not the
    start of a word (``contains``, ``call`` at column 1 stay code).
    """
    for i, ln in enumerate(lines):
        if not ln:
            continue
        c0 = ln[0]
        if c0 == "*":
            lines[i] = "!" + ln[1:]
        elif c0 in "cC" and (len(ln) == 1 or not (ln[1].isalnum() or ln[1] == "_")):
            lines[i] = "!" + ln[1:]


def _join_fixed_continuations(lines: list[str]) -> int:
    """Join column-6 continuations onto the preceding code line.

    A continuation line has columns 1-5 blank and a non-blank, non-``0``
    marker in column 6. Alphabetic column-6 characters are skipped: a
    free-form statement indented five spaces would otherwise be eaten.
    Consumed lines become filler comments (line count preserved).
    """
    joined = 0
    for i, ln in enumerate(lines):
        if len(ln) < 6 or ln[:5].strip() or ln[5] in " 0":
            continue
        if ln[5].isalpha():
            continue
        if is_directive_line(ln) or ln.lstrip().startswith("!"):
            continue
        h = i - 1
        while h >= 0 and (
            not _is_code_line(lines[h]) or is_directive_line(lines[h])
        ):
            h -= 1
        if h < 0:
            continue
        lines[h] = f"{lines[h].rstrip()} {ln[6:].strip()}"
        lines[i] = f"{FILLER_PREFIX}{h + 1}"
        joined += 1
    return joined


def normalize_file(file: SourceFile) -> int:
    """Normalize one file in place; returns the joined-line count."""
    _normalize_endings(file.lines)
    joined_fixed = 0
    if is_fixed_form(file.name):
        _fixed_comments(file.lines)
        joined_fixed = _join_fixed_continuations(file.lines)
    _normalize_sentinels(file.lines)
    _join_directive_continuations(file.lines)
    return joined_fixed + _join_statement_continuations(file.lines)


def normalize_tree(cb: Codebase) -> dict[str, int]:
    """Normalize every file in place; map of file -> joined-line count."""
    return {f.name: normalize_file(f) for f in cb.files}
