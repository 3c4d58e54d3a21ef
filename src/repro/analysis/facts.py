"""One fact sheet per file: everything the lint rule families read of it.

A sheet is computed from a file's lines and kept under ``(file name,
sha256 of its lines)``. Every rule family reads the sheet instead of
scanning the file again. It has two parts:

* the summary inputs, which are line scans that hold for any text --
  ``index`` (modules, routine symbols and ``use`` edges), ``calls`` (every
  call site, a one-line ``if (cond) call`` included), ``blocks`` (each
  routine's body facts) and ``module_vars`` (the file's module spec
  variables). :func:`repro.analysis.interproc.summarize` reads only these
  (:func:`summary_facts`);
* ``lint``, what the per-file rules need the file's parallel regions for
  (:class:`LintFacts`): the ``DC0xx``/``ACC1xx`` findings, the
  data-directive fragment and each region unit's touched names
  (``UM2xx``), and the parallel span around each call site
  (``IP101``-``IP103``). A lint (:func:`file_facts`) computes it, on a
  sheet the summary pass left without one too.

A sheet holds values only: frozen findings and records, tuples and
frozensets. It references no ``SourceFile``, ``Codebase``, region or loop
unit, so nothing cached keeps a tree alive and no caller can change a
cached fact. What spans files is joined fresh on every lint: data
coverage, the symbol index, the summary pass (with its own summary cache),
the IP judgements, sorting and telemetry. A warm lint therefore digests
each file, looks up its sheet and runs the joins; after an edit only the
edited file's sheet is recomputed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding
from repro.fortran.frontend.resolve import IndexFragment, index_fragment
from repro.fortran.parser import ParallelRegion, find_parallel_regions
from repro.fortran.source import SourceFile

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoid a cycle
    from repro.analysis.fortran_lint import _CoverageFragment
    from repro.analysis.interproc import CallSite, _Block

#: Cap on each cross-run cache (entries, not bytes): the fact sheets here,
#: the procedure summaries in :mod:`repro.analysis.interproc`.
_CACHE_LIMIT = 8192
_SHEETS: dict[tuple[str, str], FileFacts] = {}


@dataclass(frozen=True, slots=True)
class LintFacts:
    """What the per-file lint rules read of one file's parallel regions."""

    findings: tuple[Finding, ...] = ()
    coverage: _CoverageFragment | None = None
    region_names: tuple[tuple[int, frozenset[str]], ...] = ()
    #: the label of the parallel span enclosing each of the sheet's
    #: ``calls``, or None outside every span
    call_spans: tuple[str | None, ...] = ()
    #: the error the loop rules hit reading the file (exception type and
    #: arguments), when its regions do not parse
    error: tuple[type[Exception], tuple] | None = None


@dataclass(frozen=True, slots=True)
class FileFacts:
    """What the rule families know about one file's content."""

    name: str
    index: IndexFragment
    calls: tuple[CallSite, ...]
    blocks: tuple[_Block, ...]
    module_vars: tuple[tuple[str, frozenset[str]], ...]
    #: None until a lint reads the sheet
    lint: LintFacts | None = None

    def checked(self) -> LintFacts:
        """The lint part, or the error its file raised, raised again."""
        assert self.lint is not None, "a lint sheet comes from file_facts"
        if self.lint.error is not None:
            kind, args = self.lint.error
            raise kind(*args)
        return self.lint


def clear_fact_sheets() -> None:
    """Drop every cached sheet."""
    _SHEETS.clear()


def file_facts(
    file: SourceFile, regions: list[ParallelRegion] | None = None
) -> FileFacts:
    """The sheet of ``file``'s current lines with its lint part, computed
    on a cache miss.

    ``regions`` are the file's parallel regions when the caller has
    already found them; they are used only when the lint part is computed.
    """
    return _lookup(file, regions, lint=True)


def summary_facts(file: SourceFile) -> FileFacts:
    """The sheet of ``file``'s current lines; on a cache miss only its
    summary inputs are computed, not the per-file rules."""
    return _lookup(file, None, lint=False)


def _lookup(
    file: SourceFile, regions: list[ParallelRegion] | None, *, lint: bool
) -> FileFacts:
    digest = hashlib.sha256("\n".join(file.lines).encode()).hexdigest()
    key = (file.name, digest)
    sheet = _SHEETS.get(key)
    if sheet is not None and (sheet.lint is not None or not lint):
        _record("cached")
        return sheet
    if sheet is None:
        sheet = _summary_part(file)
    if lint:
        sheet = replace(sheet, lint=_lint_part(file, regions, sheet.calls))
    if len(_SHEETS) >= _CACHE_LIMIT:
        _SHEETS.clear()
    _SHEETS[key] = sheet
    _record("computed")
    return sheet


def _summary_part(file: SourceFile) -> FileFacts:
    # interproc imports this module: its scans are imported here
    from repro.analysis.interproc import _call_sites, _file_module_variables, _scan_block

    index = index_fragment(file)
    calls = _call_sites(file)
    blocks = tuple(_scan_block(file, sym, calls) for sym in index.routines)
    return FileFacts(file.name, index, calls, blocks, _file_module_variables(file))


def _lint_part(
    file: SourceFile,
    regions: list[ParallelRegion] | None,
    calls: tuple[CallSite, ...],
) -> LintFacts:
    # the rule families import this module: their scans are imported here
    from repro.analysis.fortran_lint import _coverage_fragment, _lint_file
    from repro.analysis.interproc import parallel_spans

    try:
        if regions is None:
            regions = find_parallel_regions(file)
        findings, region_names = _lint_file(file, regions)
        coverage = _coverage_fragment(file)
        spans = parallel_spans(file, regions)
    except (ValueError, IndexError) as exc:
        return LintFacts(error=(type(exc), exc.args))
    return LintFacts(
        findings, coverage, region_names,
        tuple(
            next((label for s, e, label in spans if s <= site.line <= e), None)
            for site in calls
        ),
    )


def _record(result: str) -> None:
    from repro.obs import current

    tel = current()
    if not tel.enabled:
        return
    tel.metrics.counter(
        "lint_file_facts_total",
        "per-file fact sheets by cache outcome",
        labelnames=("result",),
    ).labels(result=result).inc()
