"""Finding/rule vocabulary shared by both analyzer front ends.

Rule IDs are stable identifiers (used in suppressions, SARIF output, CI
gates and the telemetry counter ``lint_findings_total{rule,severity}``):

* ``DC0xx`` -- loop-level `do concurrent` safety (dependences, reductions,
  privatization) from the static Fortran front end;
* ``ACC1xx`` -- directive hygiene (orphan end/continuation/wait);
* ``UM2xx`` -- data-region coverage (implicit unified-memory traffic risk,
  the Fig. 4 pathology);
* ``RT3xx`` -- runtime shadow-checker findings (residency, races,
  footprint drift).

The full catalog with paper grounding lives in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.obs.telemetry import current as _telemetry

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.fixes import Fix


class Severity(enum.IntEnum):
    """Finding severity; integer order supports ``--fail-on`` thresholds."""

    NOTE = 1
    WARNING = 2
    ERROR = 3

    @property
    def sarif_level(self) -> str:
        return {Severity.NOTE: "note", Severity.WARNING: "warning",
                Severity.ERROR: "error"}[self]


@dataclass(frozen=True, slots=True)
class Rule:
    """One analyzer rule: stable id, severity, and human description."""

    id: str
    title: str
    severity: Severity
    summary: str


_RULES = [
    # -- do concurrent safety (static) --------------------------------------
    Rule("DC001", "loop-carried dependence", Severity.ERROR,
         "Array read/written at shifted indices across parallel iterations; "
         "the loop cannot be expressed as do concurrent without restructuring."),
    Rule("DC002", "undeclared reduction", Severity.ERROR,
         "Scalar accumulated across iterations without a reduction/reduce "
         "clause; nvfortran silently races without reduce() (Listing 3)."),
    Rule("DC003", "unprotected shared write", Severity.ERROR,
         "Array element written by multiple parallel iterations with no "
         "atomic protection and no reduction clause."),
    Rule("DC004", "scalar needs privatization", Severity.WARNING,
         "Scalar read before assignment inside the loop; needs local()/ "
         "private semantics or hoisting to be DC-safe."),
    Rule("DC005", "indirect write unprovable", Severity.NOTE,
         "Write through an index lookup table; safety depends on the table "
         "being a permutation, which static analysis cannot prove."),
    Rule("DC006", "dependent nests share a region", Severity.WARNING,
         "Two loop nests inside one parallel region have a RAW/WAR/WAW "
         "hazard; splitting the region changes synchronization."),
    # -- directive hygiene ---------------------------------------------------
    Rule("ACC101", "orphan region end", Severity.ERROR,
         "acc end directive with no matching region start."),
    Rule("ACC102", "orphan continuation", Severity.ERROR,
         "acc continuation line (!$acc&) not preceded by a directive."),
    Rule("ACC103", "wait on idle queue", Severity.WARNING,
         "acc wait names an async queue no kernel in the file launches on."),
    # -- data-region / unified-memory coverage -------------------------------
    Rule("UM201", "region array not in any data region", Severity.WARNING,
         "Device region touches an array managed elsewhere by enter data, "
         "but this array is never entered: implicit UM paging risk (Fig. 4)."),
    Rule("UM202", "exit without enter", Severity.WARNING,
         "exit data deletes/copies out an array no enter data or declare "
         "created."),
    Rule("UM203", "update host without enter", Severity.WARNING,
         "update host reads back an array that was never entered or "
         "declared; on a non-UM build this is stale or fails."),
    # -- real-Fortran front end ----------------------------------------------
    Rule("FE001", "unsupported construct", Severity.NOTE,
         "The real-Fortran front end could not lower this construct into "
         "the analyzable IR; it was degraded to opaque lines (excluded "
         "from loop analysis) rather than crashing the run."),
    # -- interprocedural (call-graph summaries) ------------------------------
    Rule("IP101", "impure call in parallel region", Severity.ERROR,
         "Call site inside a do concurrent/parallel region invokes a "
         "routine the summary proves impure (I/O, stop, global allocate) "
         "or merely not declared pure; do concurrent requires pure "
         "procedures, and the fix-it adds the attribute when the summary "
         "proves it safe."),
    Rule("IP102", "module variable written through call", Severity.ERROR,
         "Callee (transitively) writes a module variable: a hidden "
         "loop-carried dependence invisible to per-loop analysis; the "
         "region races when parallelized."),
    Rule("IP103", "aliased actual arguments", Severity.ERROR,
         "Two actual arguments share storage while the callee writes at "
         "least one of the corresponding dummies; Fortran argument "
         "aliasing rules make this undefined."),
    Rule("IP104", "intent mismatch or missing intent", Severity.WARNING,
         "Dummy argument's declared intent contradicts the observed "
         "reads/writes, or a routine called from a parallel region leaves "
         "intent undeclared; the fix-it writes the inferred intent."),
    # -- runtime shadow checker ----------------------------------------------
    Rule("RT301", "unknown array in kernel spec", Severity.ERROR,
         "KernelSpec reads/writes an array the DataEnvironment never "
         "registered."),
    Rule("RT302", "array not resident at launch", Severity.ERROR,
         "Kernel launched while a declared array is not device-resident in "
         "MANUAL data mode (would hard-fail on a real GPU, Listing 1)."),
    Rule("RT310", "cross-queue race", Severity.ERROR,
         "Kernels in flight on different async queues overlap with a "
         "RAW/WAR/WAW hazard and no intervening wait."),
    Rule("RT320", "undeclared write", Severity.ERROR,
         "Kernel body mutated an array its spec does not declare in "
         "writes; the fusion planner and race detector reason from specs."),
    Rule("RT321", "declared write untouched", Severity.NOTE,
         "Kernel spec declares a write the numpy body never performed: "
         "footprint drift inflates dependence edges and fusion barriers."),
]

RULES: Mapping[str, Rule] = {r.id: r for r in _RULES}


@dataclass(frozen=True, slots=True)
class RelatedLocation:
    """A secondary source location a finding points at (SARIF
    ``relatedLocations``): the callee definition an IP finding blames, the
    sibling nest a DC006 hazard pairs with. ``line`` is 1-based."""

    file: str
    line: int
    message: str = ""


@dataclass(frozen=True, slots=True)
class Finding:
    """One analyzer finding, anchored to a file/line or runtime site.

    ``line`` is 1-based (0 for runtime findings with no source anchor).
    ``context`` carries the symbol (array/scalar) the finding is about,
    when there is one -- fix generation keys off it instead of parsing
    messages back apart. ``fix`` is an optional machine-applicable repair
    (:class:`repro.analysis.fixes.Fix`), attached by
    :func:`repro.analysis.fixes.attach_fixes` and exported in SARIF.
    ``related`` carries cross-file evidence locations (the callee an IP
    rule blames, a sibling loop nest), exported as SARIF
    ``relatedLocations``.
    """

    rule_id: str
    file: str
    line: int
    message: str
    context: str = ""
    fix: "Fix | None" = None
    related: tuple[RelatedLocation, ...] = ()

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    def render(self) -> str:
        loc = f"{self.file}:{self.line}" if self.line else self.file
        return f"{self.rule_id} [{self.severity.name.lower()}] {loc}: {self.message}"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Severity-ranked (worst first), then (file, line, rule, message).

    The tiebreak chain is total over every field a finding renders with,
    so two runs over the same input produce byte-identical JSON/SARIF
    exports (asserted by the determinism regression test).
    """
    return sorted(
        findings,
        key=lambda f: (-int(f.severity), f.file, f.line, f.rule_id, f.message),
    )


def count_by_severity(findings: Iterable[Finding]) -> dict[str, int]:
    out = {s.name: 0 for s in sorted(Severity, reverse=True)}
    for f in findings:
        out[f.severity.name] += 1
    return out


def max_severity(findings: Iterable[Finding]) -> Severity | None:
    sevs = [f.severity for f in findings]
    return max(sevs) if sevs else None


def record_findings(findings: Iterable[Finding], *, source: str) -> None:
    """Bump ``lint_findings_total{rule,severity,source}`` for each finding.

    No-op outside an active telemetry session (the registry no-op pattern).
    """
    tel = _telemetry()
    if not tel.enabled:
        return
    counter = tel.metrics.counter(
        "lint_findings_total",
        "analyzer findings by rule and severity",
        labelnames=("rule", "severity", "source"),
    )
    for f in findings:
        counter.labels(
            rule=f.rule_id, severity=f.severity.name.lower(), source=source
        ).inc()
