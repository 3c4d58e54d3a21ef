"""The front end's passes as they were before they read candidate rows,
kept verbatim as the test oracle.

Normalization: ``_normalize_endings`` cleans each line on its own,
``_normalize_sentinels`` and ``_join_directive_continuations`` test every
line for the ``!$acc`` sentinel, and ``_join_statement_continuations``
walks every line for a head ending in ``&``. Lowering: ``lower_file``
joins the file's text for the undecoded-bytes check, tests and parses
every line for an unknown directive, matches every line against the
interface patterns, makes a new ``LineScan`` for the DC headers, lets
each structural parser make its own, and counts opaque and directive
lines over every line; ``lower_tree`` builds the symbol index with
``build_index``, a fresh scan of every file, which left ``src/`` with its
last caller and lives on here (the index tests use it too).
``normalize_file``, ``normalize_tree`` and ``load_external_tree`` are
copied too, so that they call these passes; the passes that did not change
(the fixed-form ones, ``_neutralize``, ``_degrade_whole_file``) are
imported.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.findings import Finding
from repro.fortran.directives import is_directive_line, try_parse_directive
from repro.fortran.frontend.lower import (
    _CULPRIT_RE,
    _UNDECODED_RE,
    OPAQUE_PREFIX,
    FrontendResult,
    ParseCensus,
    ParseFileCensus,
    _degrade_whole_file,
    _neutralize,
    _record_parse_errors,
)
from repro.fortran.frontend.normalize import (
    _OMP_SENTINEL_RE,
    _SENTINEL_RE,
    FILLER_PREFIX,
    _code_part,
    _fixed_comments,
    _is_code_line,
    _join_fixed_continuations,
    is_fixed_form,
)
from repro.fortran.frontend.resolve import (
    _END_INTERFACE_RE,
    _INTERFACE_RE,
    ModuleIndex,
    index_fragment,
    join_index,
)
from repro.fortran.parser import (
    LineScan,
    ParallelRegion,
    find_kernels_regions,
    find_parallel_regions,
    split_paren_args,
)
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.tree_io import load_tree, shown


# -- normalize.py ----------------------------------------------------------------


def _normalize_endings(lines: list[str]) -> None:
    """Strip CRLF remnants and trailing whitespace, expand tabs."""
    for i, ln in enumerate(lines):
        lines[i] = ln.replace("\r", "").expandtabs(4).rstrip()


def _normalize_sentinels(lines: list[str]) -> None:
    """Lowercase directive lines (``!$ACC PARALLEL`` -> ``!$acc parallel``).

    Fortran and OpenACC are case-insensitive, and the clause scanners in
    the analyzer are not uniformly so; lowering the whole directive line
    is semantics-preserving and makes them all hit. OpenMP sentinels stay
    untouched -- they are plain comments to this front end.
    """
    for i, ln in enumerate(lines):
        if _SENTINEL_RE.match(ln) and not _OMP_SENTINEL_RE.match(ln):
            lines[i] = ln.lower()


def _join_directive_continuations(lines: list[str]) -> None:
    """Canonicalize trailing-``&`` directive continuations.

    ``!$acc parallel loop &`` followed by ``!$acc collapse(2)`` or
    ``!$acc& collapse(2)`` becomes ``!$acc parallel loop`` +
    ``!$acc& collapse(2)`` -- the two-line shape the canonical parser
    already understands, without moving any text across lines.
    """
    for i, ln in enumerate(lines):
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
    i = 0
    while i < len(lines):
        line = lines[i]
        if not _is_code_line(line) or is_directive_line(line):
            i += 1
            continue
        if not _code_part(line).rstrip().endswith("&"):
            i += 1
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
        i = j
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



# -- resolve.py ------------------------------------------------------------------


def build_index(cb: Codebase) -> ModuleIndex:
    """Scan every file once and build the cross-file symbol index."""
    return join_index(index_fragment(file) for file in cb.files)


# -- lower.py --------------------------------------------------------------------


def _note_undecoded_bytes(file: SourceFile, diags: list[Finding]) -> None:
    """One FE001 note at the first line holding bytes that are not UTF-8.
    The line is analyzed as it is, and written back byte for byte."""
    text = "\n".join(file.lines)
    m = _UNDECODED_RE.search(text)
    if m is not None:
        i = text.count("\n", 0, m.start())
        diags.append(Finding(
            "FE001", file.name, i + 1,
            f"bytes that are not UTF-8, kept as they are: "
            f"{shown(file.lines[i].strip()[:100])}",
        ))


def _neutralize_unknown_directives(file: SourceFile, diags: list[Finding]) -> None:
    for i, ln in enumerate(file.lines):
        if is_directive_line(ln) and try_parse_directive(ln) is None:
            _neutralize(file, i, diags, "unsupported directive")


def _neutralize_interface_blocks(file: SourceFile) -> None:
    """Interface blocks declare, they don't define: make them opaque.

    No FE001 -- this is the intended handling, not a parse failure -- but
    the lines count as opaque in the census.
    """
    in_block = False
    for i, ln in enumerate(file.lines):
        if not in_block and _INTERFACE_RE.match(ln):
            in_block = True
        if in_block:
            ended = bool(_END_INTERFACE_RE.match(ln))
            file.lines[i] = f"{OPAQUE_PREFIX}{ln.rstrip()}"
            if ended:
                in_block = False


def _repair_dc_headers(file: SourceFile, diags: list[Finding]) -> None:
    """Replace DC headers the clause splitter chokes on with a bare ``do``.

    A bare ``do`` keeps the do/enddo nesting balanced (unlike commenting
    the header out), so enclosing walkers stay correct.
    """
    for i in LineScan(file.lines).dc_headers:
        ln = file.lines[i]
        try:
            split_paren_args(ln)
        except ValueError:
            orig = ln.rstrip()
            file.lines[i] = f"do  {OPAQUE_PREFIX}{orig.lstrip()}"
            diags.append(
                Finding("FE001", file.name, i + 1,
                        f"unsupported do concurrent header: "
                        f"{shown(orig.strip()[:100])}")
            )


def _repair_structure(
    file: SourceFile, diags: list[Finding]
) -> list[ParallelRegion] | None:
    """Neutralize lines until the structural region parsers succeed.

    Every parser ValueError names its 0-based culprit line; neutralizing
    it strictly shrinks the problem, so this terminates. Returns the
    file's parallel regions, or None when no culprit can be extracted
    (caller degrades the whole file).
    """
    for _ in range(file.line_count + 1):
        try:
            regions = find_parallel_regions(file)
            find_kernels_regions(file)
            return regions
        except ValueError as exc:
            m = _CULPRIT_RE.search(str(exc))
            if m is None:
                return None
            culprit = int(m.group(1))
            if not (0 <= culprit < file.line_count):
                return None
            if file.lines[culprit].lstrip().startswith("!"):
                return None  # already neutral and still failing: bail out
            _neutralize(file, culprit, diags, "unsupported construct")
    return None


def lower_file(
    file: SourceFile, *, joined_lines: int = 0
) -> tuple[list[Finding], ParseFileCensus]:
    """Lower one (already normalized) file in place; never raises.

    The check that analysis cannot crash builds the file's fact sheet from
    the regions structural recovery found; the lint that follows reuses it.
    """
    from repro.analysis.facts import file_facts

    diags: list[Finding] = []
    _note_undecoded_bytes(file, diags)
    _neutralize_unknown_directives(file, diags)
    _neutralize_interface_blocks(file)
    _repair_dc_headers(file, diags)
    regions = _repair_structure(file, diags)
    if regions is None:
        _degrade_whole_file(file, diags, "structural recovery failed")
    else:
        try:
            file_facts(file, regions).checked()
        except Exception as exc:  # belt and braces: analysis must not crash
            _degrade_whole_file(file, diags, f"analysis failed ({type(exc).__name__})")
    opaque = sum(1 for ln in file.lines if "repro-fe opaque:" in ln)
    census = ParseFileCensus(
        name=file.name,
        total_lines=file.line_count,
        opaque_lines=opaque,
        joined_lines=joined_lines,
        directive_lines=sum(1 for ln in file.lines if is_directive_line(ln)),
    )
    return diags, census


def lower_tree(cb: Codebase) -> FrontendResult:
    """Normalize + lower a codebase in place into analyzable IR."""
    joined = normalize_tree(cb)
    diags: list[Finding] = []
    census = ParseCensus()
    for file in cb.files:
        file_diags, file_census = lower_file(
            file, joined_lines=joined.get(file.name, 0)
        )
        diags.extend(file_diags)
        census.files.append(file_census)
    _record_parse_errors(diags, source=cb.name)
    return FrontendResult(
        codebase=cb, diagnostics=diags, census=census, index=build_index(cb)
    )


def load_external_tree(
    path: str | Path, *, name: str | None = None
) -> FrontendResult:
    """Load an on-disk Fortran tree through the tolerant front end."""
    cb = load_tree(path, name=name, recursive=True)
    return lower_tree(cb)
