"""Machine-applicable repairs for analyzer findings (the fix-it engine).

Two layers:

* the **edit model** -- :class:`TextEdit` (one anchored line-range
  replacement) and :class:`Fix` (one finding's repair: a description plus
  an edit set).  Edits are *line-based* because every construct the
  analyzer reasons about (directives, loop headers, statements) is a
  whole line in the canonical MAS-like subset;
* the **generators** -- :func:`attach_fixes` walks a finding list and
  derives the repair each rule admits, mirroring the hand transforms of
  the paper's port:

  ======  =====================================================
  DC001   demote the region/loop to sequential ``do`` (don't port)
  DC002   add ``reduction(op:var)`` / ``reduce(op:var)`` clause
  DC003   accumulations: insert ``!$acc atomic update``; other
          shared writes: demote to sequential
  DC004   add ``private(var)`` / ``local(var)`` clause
  DC005   insert ``!$acc atomic update``/``write`` (Listing 4)
  DC006   split the parallel region between the dependent nests
  ACC101  delete the orphan ``end`` directive
  ACC102  delete the orphan continuation line
  ACC103  widen ``wait(q)`` to the global ``wait`` barrier
  UM201   ``enter data create(arr)`` at the top of the file
  UM202   ``enter data create(arr)`` at the top of the file
  UM203   delete the stale ``update host`` line
  ======  =====================================================

  RT3xx runtime findings have no source line to anchor to; instead of a
  code edit, :func:`attach_spec_fixes` gives them a **spec patch**: a
  tiny edit DSL (``add-write rho`` / ``drop-write rho`` / ``drop rho`` /
  ``drop-tag async:1``) against a virtual ``kernelspec:<name>`` artifact,
  exported through SARIF like any other fix for whoever maintains the
  :class:`~repro.runtime.kernel.KernelSpec` to apply.
  DC005's atomic insertion is only valid while the build still compiles
  OpenACC directives -- the pure-DC targets (Codes 5/6) had to *drop*
  atomics, which is why ``repro port`` flags them instead (see
  docs/ANALYSIS.md, "Fix-it catalog").

Fixes never mutate anything here: application is
:func:`repro.analysis.rewriter.apply_fixes`, which adds conflict
detection, anchoring and idempotence on top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.analysis.findings import Finding
from repro.fortran.parser import (
    LineScan,
    ParallelRegion,
    find_parallel_regions,
    split_paren_args,
)
from repro.fortran.source import Codebase, SourceFile


@dataclass(frozen=True, slots=True)
class TextEdit:
    """Replace lines ``[start, end]`` of ``file`` with ``replacement``.

    Indices are 0-based and inclusive; ``end == start - 1`` makes the
    edit a pure insertion *before* ``start``.  ``anchor`` snapshots the
    lines being replaced (for an insertion: the single line the new text
    lands in front of) at fix-creation time -- the rewriter refuses to
    apply an edit whose anchor no longer matches, which is what makes
    re-applying an already-applied fix a no-op instead of a corruption.
    """

    file: str
    start: int
    end: int
    replacement: tuple[str, ...]
    anchor: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start - 1:
            raise ValueError(f"bad edit range [{self.start}, {self.end}]")

    @property
    def is_insertion(self) -> bool:
        """True when the edit deletes nothing."""
        return self.end < self.start


@dataclass(frozen=True, slots=True)
class Fix:
    """One finding's machine-applicable repair."""

    rule_id: str
    description: str
    edits: tuple[TextEdit, ...]


#: Rules whose findings get a fix attached (the rest are report-only).
#: IP101/IP104 fixes are built by the interprocedural pass itself (they
#: edit the *callee's* file) and arrive pre-attached; attach_fixes only
#: passes them through.
FIXABLE_RULES = frozenset(
    {"DC001", "DC002", "DC003", "DC004", "DC005", "DC006",
     "ACC101", "ACC102", "ACC103", "UM201", "UM202", "UM203",
     "IP101", "IP104"}
)

_ACCUM_STMT_RE = re.compile(
    r"^\s*(\w+)\s*\(([^)]*(?:\([^)]*\)[^)]*)*)\)\s*=\s*\1\s*\(\2\)\s*([+*])", re.I
)
_SCALAR_ACCUM_RE = re.compile(r"^\s*(\w+)\s*=\s*(.*)$", re.I)
_WAIT_QUEUE_RE = re.compile(r"(wait)\s*\(\s*[\w,\s]+\s*\)", re.I)
_DC_HEADER_RE = re.compile(r"^(\s*)do\s+concurrent\s*\(", re.I)


def _edit_for(file: SourceFile, start: int, end: int,
              replacement: tuple[str, ...]) -> TextEdit:
    """Build an edit with its anchor snapshotted from the file."""
    if end < start:  # insertion: anchor on the line it lands before
        anchor = (file.lines[start],) if start < len(file.lines) else ()
    else:
        anchor = tuple(file.lines[start : end + 1])
    return TextEdit(file.name, start, end, replacement, anchor)


class _FileContext:
    """Lazily-parsed structure of one file, shared by its findings."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.scan = LineScan(file.lines)
        self._regions: list[ParallelRegion] | None = None

    @property
    def regions(self) -> list[ParallelRegion]:
        if self._regions is None:
            self._regions = find_parallel_regions(self.file, self.scan)
        return self._regions

    def enclosing_region(self, li: int) -> ParallelRegion | None:
        for r in self.regions:
            if r.start <= li <= r.end:
                return r
        return None

    def enclosing_dc_header(self, li: int) -> int | None:
        """Innermost ``do concurrent`` header whose loop contains ``li``."""
        return max(
            (i for i in self.scan.dc_headers if i <= li and self.scan.dc_end(i) >= li),
            default=None,
        )

    def loop_directive_above(self, region: ParallelRegion, li: int) -> int:
        """The directive line governing the nest that contains ``li``
        (the closest ``!$acc`` line above the nest; the region start as a
        fallback)."""
        for nest in region.loops:
            if nest.start <= li <= nest.end:
                above = [d for d in region.directive_lines if d < nest.start]
                return max(above) if above else region.start
        return region.start


def _reduction_op(stmt: str, var: str) -> str:
    """Reduction operator of ``var = var <op> ...`` (default ``+``)."""
    var = var.lower()
    m = _SCALAR_ACCUM_RE.match(stmt.split("!")[0])
    if m and m.group(1).lower() == var:
        rhs = m.group(2).strip().lower()
        for op, head in (("max", "max("), ("min", "min(")):
            if rhs.startswith(head):
                return op
        if rhs.startswith(var) and rhs[len(var):].lstrip().startswith("*"):
            return "*"
    return "+"


def _demote_region(ctx: _FileContext, region: ParallelRegion) -> tuple[TextEdit, ...]:
    """Delete every directive line of a region: the nest runs sequential."""
    return tuple(
        _edit_for(ctx.file, i, i, ()) for i in region.directive_lines
    )


def _demote_dc_loop(ctx: _FileContext, header: int) -> tuple[TextEdit, ...]:
    """Rewrite one ``do concurrent`` loop into a sequential ``do`` nest."""
    line = ctx.file.lines[header]
    m = _DC_HEADER_RE.match(line)
    assert m is not None
    indent = m.group(1)
    args, _trailing = split_paren_args(line)
    do_lines = []
    for part in args.split(","):
        var, _, rng = part.partition("=")
        lo, _, hi = rng.partition(":")
        do_lines.append(f"{indent}do {var.strip()}={lo.strip()},{hi.strip()}")
    end = ctx.scan.dc_end(header)
    end_indent = ctx.file.lines[end][: len(ctx.file.lines[end])
                                     - len(ctx.file.lines[end].lstrip())]
    return (
        _edit_for(ctx.file, header, header, tuple(do_lines)),
        _edit_for(ctx.file, end, end,
                  tuple(f"{end_indent}enddo" for _ in do_lines)),
    )


def _atomic_insert(ctx: _FileContext, li: int) -> tuple[TextEdit, ...]:
    """``!$acc atomic update``/``write`` in front of the statement."""
    stmt = ctx.file.lines[li]
    kind = "update" if _ACCUM_STMT_RE.match(stmt) else "write"
    return (_edit_for(ctx.file, li, li - 1, (f"!$acc atomic {kind}",)),)


# -- clause appends: merged per target line so two findings never fight ------


class _ClauseMerge:
    """Accumulates clause appends per (file, line); resolves to edits."""

    def __init__(self) -> None:
        self._by_line: dict[tuple[str, int], list[str]] = {}
        self._ctx: dict[tuple[str, int], _FileContext] = {}

    def add(self, ctx: _FileContext, li: int, clause: str) -> tuple[str, int]:
        key = (ctx.file.name, li)
        clauses = self._by_line.setdefault(key, [])
        if clause not in clauses:
            clauses.append(clause)
        self._ctx[key] = ctx
        return key

    def resolve(self) -> dict[tuple[str, int], TextEdit]:
        out = {}
        for key, clauses in self._by_line.items():
            ctx, (_, li) = self._ctx[key], key
            new_line = " ".join([ctx.file.lines[li], *sorted(clauses)])
            out[key] = _edit_for(ctx.file, li, li, (new_line,))
        return out


def _build_fix(
    finding: Finding, ctx: _FileContext, merge: _ClauseMerge
) -> tuple[str, tuple | None]:
    """(description, payload) for one finding; payload is either a tuple
    of edits, or a ``("clause", key)`` marker resolved after merging."""
    li = finding.line - 1
    rule = finding.rule_id
    lines = ctx.file.lines

    if rule.startswith("IP"):
        # interprocedural fixes are pre-attached by the summary pass (they
        # edit the callee's file); an IP finding reaching here is the
        # unfixable flavor and stays report-only
        return ("", None)

    if rule == "DC001":
        region = ctx.enclosing_region(li)
        if region is not None:
            return ("demote the parallel region to sequential do loops "
                    "(loop-carried dependence: do not port)",
                    _demote_region(ctx, region))
        header = ctx.enclosing_dc_header(li)
        if header is None:
            return ("", None)
        return ("rewrite do concurrent as sequential do loops "
                "(loop-carried dependence: do not port)",
                _demote_dc_loop(ctx, header))

    if rule == "DC002":
        var = finding.context
        op = _reduction_op(lines[li], var)
        region = ctx.enclosing_region(li)
        if region is not None:
            target = ctx.loop_directive_above(region, li)
            key = merge.add(ctx, target, f"reduction({op}:{var})")
            return (f"declare the reduction: add reduction({op}:{var})",
                    ("clause", key))
        header = ctx.enclosing_dc_header(li)
        if header is None:
            return ("", None)
        key = merge.add(ctx, header, f"reduce({op}:{var})")
        return (f"declare the reduction: add reduce({op}:{var})",
                ("clause", key))

    if rule == "DC003":
        if _ACCUM_STMT_RE.match(lines[li]):
            return ("protect the cross-iteration accumulation with "
                    "!$acc atomic update", _atomic_insert(ctx, li))
        region = ctx.enclosing_region(li)
        if region is not None:
            return ("demote the parallel region to sequential do loops "
                    "(unprotected shared write)", _demote_region(ctx, region))
        header = ctx.enclosing_dc_header(li)
        if header is None:
            return ("", None)
        return ("rewrite do concurrent as sequential do loops "
                "(unprotected shared write)", _demote_dc_loop(ctx, header))

    if rule == "DC004":
        var = finding.context
        region = ctx.enclosing_region(li)
        if region is not None:
            target = ctx.loop_directive_above(region, li)
            key = merge.add(ctx, target, f"private({var})")
            return (f"privatize the scalar: add private({var})",
                    ("clause", key))
        header = ctx.enclosing_dc_header(li)
        if header is None:
            return ("", None)
        key = merge.add(ctx, header, f"local({var})")
        return (f"privatize the scalar: add local({var})", ("clause", key))

    if rule == "DC005":
        return ("protect the indirect write with an atomic directive "
                "(valid while the build still compiles OpenACC)",
                _atomic_insert(ctx, li))

    if rule == "DC006":
        region = ctx.enclosing_region(li)
        if region is None:
            return ("", None)
        target = ctx.loop_directive_above(region, li)
        opener = lines[region.start]
        return ("split the parallel region between the dependent nests",
                (_edit_for(ctx.file, target, target - 1,
                           ("!$acc end parallel", opener)),))

    if rule in ("ACC101", "ACC102"):
        what = "region end" if rule == "ACC101" else "continuation line"
        return (f"delete the orphan {what}",
                (_edit_for(ctx.file, li, li, ()),))

    if rule == "ACC103":
        new_line = _WAIT_QUEUE_RE.sub(r"\1", lines[li])
        return ("widen the wait to a global barrier (no kernel launches "
                "on that queue)", (_edit_for(ctx.file, li, li, (new_line,)),))

    if rule in ("UM201", "UM202"):
        arr = finding.context
        return (f"cover {arr} with an enter data directive",
                (_edit_for(ctx.file, 0, -1, (f"!$acc enter data create({arr})",)),))

    if rule == "UM203":
        return ("delete the stale update host (array was never entered)",
                (_edit_for(ctx.file, li, li, ()),))

    return ("", None)


# -- RT3xx spec patches --------------------------------------------------------


#: Runtime rules that admit a KernelSpec patch (RT302 is a data-placement
#: problem, not a spec problem: report-only).
SPEC_PATCH_RULES = frozenset({"RT301", "RT310", "RT320", "RT321"})

#: Virtual-artifact prefix for spec patches; the rewriter skips these
#: (they are not codebase files), SARIF exports them verbatim.
SPEC_ARTIFACT_PREFIX = "kernelspec:"


def _spec_patch_for(finding: Finding) -> tuple[str, tuple[str, ...]] | None:
    """(description, patch lines) for one runtime finding, if any."""
    ctx = finding.context
    if not ctx:
        return None
    if finding.rule_id == "RT301":
        return (f"drop {ctx} from the spec footprint (array is not "
                "registered in the data environment)", (f"drop {ctx}",))
    if finding.rule_id == "RT310":
        return (f"launch synchronously: remove the {ctx} tag so the "
                "hazardous overlap cannot happen", (f"drop-tag {ctx}",))
    if finding.rule_id == "RT320":
        return (f"declare the observed write: add {ctx} to spec.writes",
                (f"add-write {ctx}",))
    if finding.rule_id == "RT321":
        return (f"drop the never-performed write to {ctx} from spec.writes",
                (f"drop-write {ctx}",))
    return None


def attach_spec_fixes(findings: list[Finding]) -> list[Finding]:
    """Attach spec-patch fixes to RT3xx findings (order preserved).

    The edit targets the virtual artifact ``kernelspec:<kernel name>``;
    its replacement lines are the patch DSL.
    """
    out = []
    for f in findings:
        if f.rule_id not in SPEC_PATCH_RULES or f.fix is not None:
            out.append(f)
            continue
        patch = _spec_patch_for(f)
        if patch is None:
            out.append(f)
            continue
        desc, lines = patch
        edit = TextEdit(
            file=f"{SPEC_ARTIFACT_PREFIX}{f.file}", start=0, end=-1,
            replacement=lines, anchor=(),
        )
        out.append(replace(f, fix=Fix(f.rule_id, desc, (edit,))))
    return out


def attach_fixes(cb: Codebase, findings: list[Finding]) -> list[Finding]:
    """Return the findings with a :class:`Fix` attached where one exists.

    Order is preserved; unfixable findings (RT3xx, or constructs the
    generators don't recognize) pass through untouched.  Two findings
    whose repairs amend the *same* line (e.g. two scalars needing the
    same ``reduce`` clause) share one merged edit, so applying both fixes
    never conflicts.
    """
    contexts: dict[str, _FileContext] = {}
    merge = _ClauseMerge()
    staged: list[tuple[Finding, str, tuple | None]] = []
    for f in findings:
        if f.fix is not None:  # pre-attached (IP rules build cross-file fixes)
            staged.append((f, "", None))
            continue
        if f.rule_id not in FIXABLE_RULES or f.line <= 0:
            staged.append((f, "", None))
            continue
        try:
            file = cb.file(f.file)
        except KeyError:
            staged.append((f, "", None))
            continue
        ctx = contexts.setdefault(f.file, _FileContext(file))
        try:
            desc, payload = _build_fix(f, ctx, merge)
        except (ValueError, IndexError, AssertionError):
            desc, payload = "", None
        staged.append((f, desc, payload))

    clause_edits = merge.resolve()
    out: list[Finding] = []
    for f, desc, payload in staged:
        if payload is None:
            out.append(f)
            continue
        if payload and payload[0] == "clause":
            edits: tuple[TextEdit, ...] = (clause_edits[payload[1]],)
        else:
            edits = payload
        out.append(replace(f, fix=Fix(f.rule_id, desc, edits)))
    return out
