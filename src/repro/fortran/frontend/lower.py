"""Recovery lowering: degrade what the canonical parser cannot hold.

The contract is *never crash*: after :func:`lower_file`, the file is
guaranteed to pass the full per-file analysis (its fact sheet from
`repro.analysis.facts.file_facts`: what every lint rule family reads of
a file) without an exception. Everything the parser cannot represent is
replaced -- in place, line-count preserved -- by opaque comment lines, each one
recorded as an ``FE001`` diagnostic, and the per-file parse census makes
the degradation rate observable (the ``parse_errors_total`` metric
counts it in telemetry sessions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.fortran.directives import is_directive_line, try_parse_directive
from repro.fortran.frontend.normalize import normalize_tree
from repro.fortran.frontend.resolve import (
    _END_INTERFACE_RE,
    _INTERFACE_RE,
    ModuleIndex,
    build_index,
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

#: Prefix of every line the front end degraded. Starts with ``!`` so the
#: whole pipeline sees a comment.
OPAQUE_PREFIX = "! repro-fe opaque: "

#: All ValueErrors the structural parser raises end with a 0-based line.
_CULPRIT_RE = re.compile(r"at (?:line )?(\d+)$")

#: A byte that is not UTF-8 loads as a lone surrogate (``surrogateescape``).
_UNDECODED_RE = re.compile("[\udc80-\udcff]")


def _coverage(total_lines: int, opaque_lines: int) -> float:
    return 1.0 if total_lines == 0 else 1.0 - opaque_lines / total_lines


@dataclass(slots=True)
class ParseFileCensus:
    """How much of one file the front end lowered into analyzable IR."""

    name: str
    total_lines: int
    opaque_lines: int
    joined_lines: int
    directive_lines: int

    @property
    def coverage(self) -> float:
        """Fraction of lines lowered to non-opaque IR (1.0 for empty)."""
        return _coverage(self.total_lines, self.opaque_lines)


@dataclass(slots=True)
class ParseCensus:
    """Tree-wide parse census (one row per file plus totals)."""

    files: list[ParseFileCensus] = field(default_factory=list)

    @property
    def total_lines(self) -> int:
        return sum(f.total_lines for f in self.files)

    @property
    def opaque_lines(self) -> int:
        return sum(f.opaque_lines for f in self.files)

    @property
    def coverage(self) -> float:
        return _coverage(self.total_lines, self.opaque_lines)

    def render(self) -> str:
        """Byte-stable text table (CI gates on exact equality)."""
        width = max([len("file"), *(len(f.name) for f in self.files)])
        out = [f"{'file':<{width}}  {'lines':>6}  {'opaque':>6}  "
               f"{'joined':>6}  {'directives':>10}  {'coverage':>8}"]
        for f in sorted(self.files, key=lambda f: f.name):
            out.append(
                f"{f.name:<{width}}  {f.total_lines:>6}  {f.opaque_lines:>6}  "
                f"{f.joined_lines:>6}  {f.directive_lines:>10}  "
                f"{f.coverage:>8.4f}"
            )
        out.append(
            f"{'TOTAL':<{width}}  {self.total_lines:>6}  {self.opaque_lines:>6}  "
            f"{sum(f.joined_lines for f in self.files):>6}  "
            f"{sum(f.directive_lines for f in self.files):>10}  "
            f"{self.coverage:>8.4f}"
        )
        return "\n".join(out)


@dataclass(slots=True)
class FrontendResult:
    """A lowered tree plus everything the lowering learned about it."""

    codebase: Codebase
    diagnostics: list[Finding]
    census: ParseCensus
    index: ModuleIndex


def restore_opaque(line: str) -> str:
    """Invert the opaque degrade: the payload after the marker is the
    original text verbatim (whitespace included), so writers round-trip
    constructs the analyzer only skipped."""
    idx = line.find(OPAQUE_PREFIX)
    if idx == -1:
        return line
    return line[idx + len(OPAQUE_PREFIX):]


def _neutralize(file: SourceFile, i: int, diags: list[Finding], reason: str) -> None:
    orig = file.lines[i].rstrip()
    file.lines[i] = f"{OPAQUE_PREFIX}{orig}"
    diags.append(
        Finding("FE001", file.name, i + 1, f"{reason}: {shown(orig.strip()[:100])}")
    )


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


def _degrade_whole_file(file: SourceFile, diags: list[Finding], why: str) -> None:
    for i, ln in enumerate(file.lines):
        if not ln.lstrip().startswith("!") and ln.strip():
            file.lines[i] = f"{OPAQUE_PREFIX}{ln.rstrip()}"
    diags.append(
        Finding("FE001", file.name, 1, f"whole file degraded to opaque: {why}")
    )


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


def _record_parse_errors(diags: list[Finding], source: str) -> None:
    from repro.obs import current

    tel = current()
    if not tel.enabled or not diags:
        return
    tel.metrics.counter(
        "parse_errors_total",
        "constructs the real-Fortran front end degraded to opaque lines",
        labelnames=("source",),
    ).labels(source=source).inc(len(diags))


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
