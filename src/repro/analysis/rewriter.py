"""Conflict-aware application of fix edit sets to a codebase.

:func:`apply_fixes` is the only thing that ever turns a
:class:`~repro.analysis.fixes.Fix` into mutated source.  Its contract:

* **dedup** -- identical edits (two findings proposing the same repair,
  e.g. UM201+UM202 both covering one array) collapse to one application;
* **conflict detection** -- two *different* edits touching overlapping
  line ranges are refused as a pair: the first (in deterministic order)
  wins, the loser is reported in :attr:`ApplyReport.conflicts`;
* **stable anchoring** -- an edit only applies while the lines it was
  derived against are still there (``TextEdit.anchor``); anything else
  is skipped as stale, never mis-applied at a shifted offset;
* **idempotence** -- applying the same fix set twice is a no-op: the
  second pass finds every anchor gone (the repair replaced it) and skips.
  ``tests/analysis/test_rewriter.py`` asserts all four properties.

Application order is bottom-up per file so earlier edits never shift the
line numbers later edits were computed against.  When a telemetry
session is active the counters ``fix_edits_applied_total{rule}``,
``fix_conflicts_total`` and ``fix_stale_total`` record what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fixes import Fix, TextEdit
from repro.fortran.source import Codebase
from repro.obs.telemetry import current as _telemetry


@dataclass(slots=True)
class ApplyReport:
    """What one :func:`apply_fixes` call did."""

    applied: list[TextEdit] = field(default_factory=list)
    skipped_stale: list[TextEdit] = field(default_factory=list)
    conflicts: list[tuple[TextEdit, TextEdit]] = field(default_factory=list)
    deduped: int = 0

    @property
    def clean(self) -> bool:
        """Every edit applied: nothing stale, nothing conflicting."""
        return not self.skipped_stale and not self.conflicts

    def summary(self) -> str:
        parts = [f"{len(self.applied)} edits applied"]
        if self.deduped:
            parts.append(f"{self.deduped} duplicates merged")
        if self.conflicts:
            parts.append(f"{len(self.conflicts)} conflicts refused")
        if self.skipped_stale:
            parts.append(f"{len(self.skipped_stale)} stale edits skipped")
        return ", ".join(parts)


def _overlaps(a: TextEdit, b: TextEdit) -> bool:
    """True when two distinct edits cannot both apply.

    Replacement ranges conflict when they intersect.  An insertion
    conflicts with a replacement that deletes the line it anchors to
    (strictly inside or at the start of the deleted range), but two
    insertions at the same point coexist, and an insertion exactly at
    the first deleted line of a replacement is ambiguous -- refused.
    """
    if a.is_insertion and b.is_insertion:
        return False
    if a.is_insertion or b.is_insertion:
        ins, rep = (a, b) if a.is_insertion else (b, a)
        return rep.start <= ins.start <= rep.end
    return a.start <= b.end and b.start <= a.end


def _anchored(cb: Codebase, edit: TextEdit) -> bool:
    """Anchor lines still present exactly where the edit expects them."""
    try:
        lines = cb.file(edit.file).lines
    except KeyError:
        return False
    if edit.is_insertion:
        if not edit.anchor:
            return edit.start <= len(lines)
        return (edit.start < len(lines)
                and (lines[edit.start],) == edit.anchor)
    if edit.end >= len(lines):
        return False
    if not edit.anchor:  # anchorless (e.g. read back from SARIF): bounds only
        return True
    return tuple(lines[edit.start : edit.end + 1]) == edit.anchor


def _record(rule_of: dict[TextEdit, str], report: ApplyReport) -> None:
    """Bump the fix-application telemetry counters (no-op when disabled)."""
    tel = _telemetry()
    if not tel.enabled:
        return
    applied = tel.metrics.counter(
        "fix_edits_applied_total", "fix edits applied by rule",
        labelnames=("rule",),
    )
    for e in report.applied:
        applied.labels(rule=rule_of.get(e, "unknown")).inc()
    if report.conflicts:
        tel.metrics.counter(
            "fix_conflicts_total", "overlapping fix edits refused"
        ).inc(len(report.conflicts))
    if report.skipped_stale:
        tel.metrics.counter(
            "fix_stale_total", "fix edits skipped on stale anchors"
        ).inc(len(report.skipped_stale))


def apply_fixes(cb: Codebase, fixes: list[Fix]) -> ApplyReport:
    """Apply every applicable fix edit to ``cb`` in place."""
    report = ApplyReport()
    rule_of: dict[TextEdit, str] = {}
    unique: list[TextEdit] = []
    seen: set[TextEdit] = set()
    for fx in fixes:
        for e in fx.edits:
            if e in seen:
                report.deduped += 1
                continue
            seen.add(e)
            rule_of[e] = fx.rule_id
            unique.append(e)

    by_file: dict[str, list[TextEdit]] = {}
    for e in unique:
        by_file.setdefault(e.file, []).append(e)

    for fname in sorted(by_file):
        edits = sorted(
            by_file[fname],
            key=lambda e: (e.start, e.end, e.replacement),
        )
        # conflict pass against the edits already accepted for this file
        accepted: list[TextEdit] = []
        for e in edits:
            clash = next((a for a in accepted if _overlaps(a, e)), None)
            if clash is not None:
                report.conflicts.append((clash, e))
                continue
            accepted.append(e)
        # anchor pass against the *pre-application* file state (all edits
        # were computed against it), then bottom-up application
        anchored = []
        for e in accepted:
            (anchored if _anchored(cb, e) else report.skipped_stale).append(e)
        for e in sorted(anchored, key=lambda e: (e.start, e.end), reverse=True):
            lines = cb.file(e.file).lines
            lines[e.start : e.end + 1] = list(e.replacement)
            report.applied.append(e)

    _record(rule_of, report)
    return report


def apply_finding_fixes(cb: Codebase, findings: list) -> ApplyReport:
    """Apply the fixes attached to a finding list (unfixed ones skipped)."""
    return apply_fixes(cb, [f.fix for f in findings if f.fix is not None])
