"""Automated OpenACC -> `do concurrent` porting assistant.

Targets mirror the paper's end states:

* ``acc-opt``  -> Code 2 (AD): DC for the loops F2018 can express, OpenACC
  retained for reductions/atomics/data (the first production-safe stop);
* ``pure-dc``  -> Code 5 (D2XU): literally zero directives, unified memory;
* ``dc``       -> Code 6 (D2XAd): all loops DC, manual data management via
  the wrapper module -- the paper's production endpoint.

The porter walks the stage table of the hand-built pipeline
(:mod:`repro.fortran.pipeline`) with the same region converter; only the
verdict differs. The pipeline reads it off
:class:`~repro.fortran.parser.RegionKind` (what a region *is*), the porter
asks :func:`~repro.analysis.fortran_lint.region_port_safety` (what the
dependence core *proves*):

* ``SAFE_F2018``   -> plain ``do concurrent`` (Listing 1 -> 2);
* ``NEEDS_REDUCE`` -> DC with the ``reduce(op:var)`` clause (202X);
* ``NEEDS_ATOMIC`` -> DC with the atomics retained in the body (Listing 4);
* ``UNSAFE``       -> **refused**: recorded for ``acc-opt`` (the region
  stays OpenACC, which is still valid), fatal for the all-DC targets.

For the Code 5/6 targets the porter also flags every atomic the paper
dropped via "small code modifications" (the non-accumulation atomics
PureDc rewrites away) so a reviewer can audit them.

:func:`verify_port` is the differential harness: the ported tree must be
the same text as the hand-built artifact, file for file and line for line,
and at the MAS budget its line counts must be Table I's.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.interproc import InterprocResult

from repro.analysis.fortran_lint import (
    PortSafety,
    region_port_safety,
    region_undeclared_reductions,
)
from repro.codes import CodeVersion
from repro.codes.versions import version_info
from repro.fortran.codebase import GeneratorBudget, MAS_BUDGET, generate_mas_codebase
from repro.fortran.metrics import measure
from repro.fortran.parser import apply_edits, find_parallel_regions
from repro.fortran.pipeline import build_version, version_passes
from repro.fortran.source import Codebase
from repro.fortran.transforms import ConvertRegionsPass, PureDcPass
from repro.fortran.transforms.convert import F2018, F202X, RefusedRegion, region_replacement
from repro.fortran.transforms.pure_dc import atomic_dc_loops
from repro.obs.runlog import json_object
from repro.obs.telemetry import current as _telemetry


class PortTarget(enum.Enum):
    """What the porter should produce (CLI ``--to`` values)."""

    ACC_OPT = "acc-opt"   # Code 2 (AD)
    PURE_DC = "pure-dc"   # Code 5 (D2XU)
    DC = "dc"             # Code 6 (D2XAd)


#: The hand-built version each target is differentially verified against.
TARGET_VERSION: dict[PortTarget, CodeVersion] = {
    PortTarget.ACC_OPT: CodeVersion.AD,
    PortTarget.PURE_DC: CodeVersion.D2XU,
    PortTarget.DC: CodeVersion.D2XAD,
}


class PortRefusedError(RuntimeError):
    """An all-DC target hit regions the dependence core proves unsafe."""

    def __init__(self, target: "PortTarget", refused: list[RefusedRegion]):
        self.target = target
        self.refused = refused
        listing = "; ".join(r.render() for r in refused)
        super().__init__(
            f"cannot port to {target.value}: {len(refused)} region(s) "
            f"refused: {listing}"
        )


@dataclass(slots=True)
class PortResult:
    """What one :func:`port_codebase` run produced."""

    target: PortTarget
    codebase: Codebase
    converted: Counter = field(default_factory=Counter)  # PortSafety -> n
    refused: list[RefusedRegion] = field(default_factory=list)
    dropped_atomics: list[tuple[str, int]] = field(default_factory=list)
    stages: list[str] = field(default_factory=list)

    def summary(self) -> str:
        conv = ", ".join(
            f"{n} {s.value}" for s, n in sorted(
                self.converted.items(), key=lambda kv: kv[0].value
            )
        ) or "none"
        parts = [f"target {self.target.value}", f"converted: {conv}"]
        if self.refused:
            parts.append(f"{len(self.refused)} refused")
        if self.dropped_atomics:
            parts.append(
                f"{len(self.dropped_atomics)} atomics dropped by code "
                "modification"
            )
        parts.append(f"stages: {' -> '.join(self.stages)}")
        return "; ".join(parts)


def _scan_dropped_atomics(cb: Codebase) -> list[tuple[str, int]]:
    """(file, 1-based line) of atomics PureDc will drop by code change.

    Atomics guarding accumulation statements become the flipped-loop
    reduction (Listing 4 -> 5) and are accounted for; atomics guarding
    anything else disappear in a "small code modification" the paper
    applies by hand -- flag those for review.
    """
    return [
        (f.name, k + 1)
        for f in cb.files
        for _start, _end, atomics, accumulates in atomic_dc_loops(f.lines)
        if not accumulates
        for k in atomics
    ]


def _record(result: PortResult) -> None:
    """Telemetry counters for the port run (no-op when disabled)."""
    tel = _telemetry()
    if not tel.enabled:
        return
    counter = tel.metrics.counter(
        "port_regions_total", "regions converted by analyzer verdict",
        labelnames=("target", "safety"),
    )
    for safety, n in result.converted.items():
        counter.labels(target=result.target.value, safety=safety.value).inc(n)
    if result.refused:
        tel.metrics.counter(
            "port_refusals_total", "regions refused as unsafe",
            labelnames=("target",),
        ).labels(target=result.target.value).inc(len(result.refused))


def port_codebase(
    target: PortTarget,
    *,
    code1: Codebase | None = None,
    budget: GeneratorBudget = MAS_BUDGET,
) -> PortResult:
    """Port the Code 1 OpenACC tree to ``target``, analyzer-driven."""
    base = code1 or generate_mas_codebase(budget)
    cb = base.copy(f"port_{target.value}")
    result = PortResult(target=target, codebase=cb)

    for name, p in version_passes(TARGET_VERSION[target], region_port_safety):
        if isinstance(p, PureDcPass):
            # the audit reports lines of the tree the pass is about to
            # rewrite; inside it, inlining has already moved them
            result.dropped_atomics = _scan_dropped_atomics(cb)
        p.apply(cb)
        result.stages.append(name)
        if isinstance(p, ConvertRegionsPass):
            result.converted.update(p.converted)
            result.refused.extend(p.refused)
            if result.refused and target is not PortTarget.ACC_OPT:
                raise PortRefusedError(target, result.refused)
    _record(result)
    return result


# -- incremental per-file porting ---------------------------------------------


#: Manifest schema tag and on-disk file name (written into ``--out``).
MANIFEST_SCHEMA = "repro-port-manifest/1"
MANIFEST_FILE = "port-manifest.json"


@dataclass(slots=True)
class FilePortStatus:
    """One file's verdict in an incremental port run."""

    name: str
    status: str            # "ported" | "pending" | "refused"
    converted: int = 0     # regions converted to do concurrent
    kept_acc: int = 0      # regions left as OpenACC (acc-opt keeps UNSAFE)
    reason: str = ""       # why refused / pending

    def to_dict(self) -> dict:
        return {
            "name": self.name, "status": self.status,
            "converted": self.converted, "kept_acc": self.kept_acc,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FilePortStatus":
        return cls(
            name=d["name"], status=d["status"],
            converted=int(d.get("converted", 0)),
            kept_acc=int(d.get("kept_acc", 0)),
            reason=d.get("reason", ""),
        )


@dataclass(slots=True)
class IncrementalResult:
    """A full output tree plus the per-file manifest."""

    target: PortTarget
    codebase: Codebase  # complete tree: ported files rewritten, rest verbatim
    statuses: list[FilePortStatus] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {"ported": 0, "pending": 0, "refused": 0}
        for s in self.statuses:
            out[s.status] = out.get(s.status, 0) + 1
        return out

    def manifest_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "target": self.target.value,
            "counts": self.counts(),
            "files": [
                s.to_dict() for s in sorted(self.statuses, key=lambda s: s.name)
            ],
        }

    def summary(self) -> str:
        c = self.counts()
        return (
            f"incremental port to {self.target.value}: {c['ported']} ported, "
            f"{c['pending']} pending, {c['refused']} refused "
            f"({sum(s.converted for s in self.statuses)} regions converted)"
        )


def port_file(
    file, target: PortTarget, *, interproc: "InterprocResult | None" = None
) -> FilePortStatus:
    """Port one file in place (tolerantly); never raises.

    The all-DC targets refuse the whole file when any region is UNSAFE or
    a conversion fails -- the file is left byte-identical, so a refused
    file is always safe to ship alongside ported ones. ``acc-opt`` keeps
    UNSAFE regions as OpenACC instead (that target still compiles them).

    With ``interproc`` (the tree-wide call-graph summary pass,
    :func:`repro.analysis.interproc.summarize`), the DC targets also
    refuse regions whose call sites the summaries prove unsafe: an impure
    callee or a module-variable write through the call. A region calling
    an effectively-pure-but-undeclared routine is refused with a pointer
    at the IP101 fix-it (``repro lint --fix`` adds the ``pure``
    attribute, after which the port goes through).
    """
    snapshot = list(file.lines)
    safeties = F2018 if target is PortTarget.ACC_OPT else F2018 | F202X
    try:
        regions = find_parallel_regions(file)
        verdicts = [(r, region_port_safety(file, r)) for r in regions]
    except (ValueError, IndexError) as exc:
        return FilePortStatus(file.name, "refused", reason=f"parse: {exc}")
    if target is not PortTarget.ACC_OPT:
        unsafe = [r for r, s in verdicts if s is PortSafety.UNSAFE]
        if unsafe:
            return FilePortStatus(
                file.name, "refused",
                reason=f"{len(unsafe)} region(s) with a proven loop-carried "
                       f"hazard (first at line {unsafe[0].start + 1})",
            )
        if interproc is not None:
            from repro.analysis.interproc import region_call_blockers

            for region, _safety in verdicts:
                blockers = region_call_blockers(file, region, interproc)
                if not blockers:
                    continue
                b = blockers[0]
                if b.fixable:
                    reason = (
                        f"call to {b.callee} at line {b.line + 1} "
                        f"{b.why} ({b.rule}): run `repro lint --fix` to "
                        "add the pure attribute first"
                    )
                else:
                    reason = (
                        f"call to {b.callee} at line {b.line + 1} "
                        f"{b.why} ({b.rule}): do concurrent requires "
                        "pure procedures"
                    )
                return FilePortStatus(file.name, "refused", reason=reason)
        # NEEDS_ATOMIC covers two cases: atomic-protected bodies port fine
        # (the atomics are kept), but an *undeclared* scalar reduction is a
        # race in the original source -- converting it to plain DC would
        # bake the race in. Refuse and point at the DC002 fix-it.
        for region, safety in verdicts:
            if safety is not PortSafety.NEEDS_ATOMIC:
                continue
            undeclared = region_undeclared_reductions(file, region)
            if undeclared:
                return FilePortStatus(
                    file.name, "refused",
                    reason=f"undeclared reduction of {', '.join(undeclared)} "
                           f"at line {region.start + 1}: run `repro lint "
                           "--fix` to add the reduction clause first",
                )
    converted = kept = 0
    edits: list[tuple[int, int, list[str]]] = []
    try:
        for region, safety in verdicts:
            if safety not in safeties or not region.loops:
                kept += 1
                continue
            if interproc is not None and target is PortTarget.ACC_OPT:
                from repro.analysis.interproc import region_call_blockers

                if region_call_blockers(file, region, interproc):
                    kept += 1  # blocked call: the region stays OpenACC
                    continue
            replacement = region_replacement(file, region, safety)
            edits.append((region.start, region.end, replacement))
            converted += 1
        apply_edits(file, edits)
    except (ValueError, IndexError, KeyError) as exc:
        file.lines[:] = snapshot
        return FilePortStatus(file.name, "refused", reason=f"convert: {exc}")
    return FilePortStatus(file.name, "ported", converted=converted, kept_acc=kept)


def port_tree_incremental(
    cb: Codebase,
    target: PortTarget,
    *,
    prior: dict[str, FilePortStatus] | None = None,
    limit: int | None = None,
) -> IncrementalResult:
    """Port up to ``limit`` not-yet-ported files of ``cb`` (copied).

    Files ``prior`` already marks as ported are re-ported without
    counting against the limit (the conversion is deterministic, so the
    output tree stays complete and self-consistent on every run); the
    rest are ported oldest-first until the limit runs out, then left
    ``pending`` verbatim.  The interprocedural summary pass runs once for
    the whole tree and is shared by every per-file port.
    """
    from repro.analysis.interproc import summarize

    out_cb = cb.copy(f"{cb.name}_{target.value}")
    result = IncrementalResult(target=target, codebase=out_cb)
    prior = prior or {}
    interproc = summarize(out_cb)
    budget = limit if limit is not None else len(out_cb.files)
    for f in out_cb.files:
        was_ported = prior.get(f.name) is not None and prior[f.name].status == "ported"
        if not was_ported and budget <= 0:
            result.statuses.append(
                FilePortStatus(f.name, "pending", reason="--limit exhausted")
            )
            continue
        status = port_file(f, target, interproc=interproc)
        if not was_ported:
            budget -= 1
        result.statuses.append(status)
    _record_incremental(result)
    return result


def _record_incremental(result: IncrementalResult) -> None:
    tel = _telemetry()
    if not tel.enabled:
        return
    counter = tel.metrics.counter(
        "port_files_total", "incremental port outcomes by file",
        labelnames=("target", "status"),
    )
    for status, n in result.counts().items():
        if n:
            counter.labels(target=result.target.value, status=status).inc(n)


def write_ported_tree(result: IncrementalResult, out_dir) -> None:
    """Write the output tree plus ``port-manifest.json`` under ``out_dir``.

    Opaque front-end degrades are inverted on the way out: the marker
    comments carry the original text verbatim, so constructs the analyzer
    only *skipped* (interface blocks, unparsed directives) round-trip
    into the written tree as real code.
    """
    import json
    from pathlib import Path

    from repro.fortran.frontend.lower import restore_opaque
    from repro.fortran.tree_io import write_files

    write_files(result.codebase, out_dir, line_map=restore_opaque)
    manifest = json.dumps(result.manifest_dict(), indent=2, sort_keys=True)
    (Path(out_dir) / MANIFEST_FILE).write_text(manifest + "\n")


def read_manifest(out_dir) -> dict[str, FilePortStatus]:
    """Prior per-file statuses from an ``--out`` dir (empty if none).

    The file may be truncated or hand-edited: anything but a well-formed
    manifest of this schema raises one ValueError naming the file and why,
    and the caller ports from scratch and rewrites it.
    """
    from pathlib import Path

    path = Path(out_dir) / MANIFEST_FILE
    if not path.is_file():
        return {}
    try:
        doc = json_object(path)
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"schema is not {MANIFEST_SCHEMA}")
        return {d["name"]: FilePortStatus.from_dict(d) for d in doc["files"]}
    except (OSError, ValueError) as exc:
        why = str(exc)
    except (LookupError, TypeError):
        why = "malformed file list"
    raise ValueError(f"damaged port manifest {path}: {why}")


# -- differential verification -----------------------------------------------


@dataclass(frozen=True, slots=True)
class Check:
    """One differential check: name, verdict, human detail."""

    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass(slots=True)
class VerifyReport:
    """The differential comparison vs the hand-built version."""

    target: PortTarget
    version: CodeVersion
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        head = (
            f"port --to {self.target.value} vs hand-built "
            f"{version_info(self.version).tag}"
        )
        return "\n".join([head, *(f"  {c.render()}" for c in self.checks)])


def _first_difference(ported: Codebase, hand: Codebase) -> str | None:
    """Where the two trees stop being the same text (None: nowhere)."""
    for pf, hf in zip_longest(ported.files, hand.files):
        if pf is None or hf is None or pf.name != hf.name:
            return f"{(pf or hf).name} (the file lists differ)"
        for i, (mine, theirs) in enumerate(zip_longest(pf.lines, hf.lines)):
            if mine != theirs:
                return f"{pf.name}:{i + 1}"
    return None


def verify_port(
    result: PortResult,
    *,
    code1: Codebase | None = None,
    budget: GeneratorBudget = MAS_BUDGET,
) -> VerifyReport:
    """Differential verification of a port against the hand-built version.

    ``text``: same files, every line equal; that implies equal findings,
    census and region mix, and says where a failure is. ``table1`` (MAS
    budget, where the published numbers apply): the paper's line counts,
    which is what catches a bug in the stage driver the two trees share.
    """
    version = TARGET_VERSION[result.target]
    hand = build_version(version, code1=code1, budget=budget)
    ported = result.codebase
    report = VerifyReport(target=result.target, version=version)

    where = _first_difference(ported, hand)
    detail = (
        f"first difference at {where}" if where
        else f"identical, {len(ported.files)} files / {ported.total_lines} lines"
    )
    report.checks.append(Check("text", where is None, detail))
    if budget is MAS_BUDGET:
        info, met = version_info(version), measure(ported)
        paper = (info.paper_total_lines, info.paper_acc_lines or 0)
        detail = f"{met.total_lines} lines / {met.acc_lines} acc, paper {paper[0]} / {paper[1]}"
        report.checks.append(Check("table1", (met.total_lines, met.acc_lines) == paper, detail))
    return report
