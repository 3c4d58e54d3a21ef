"""Interprocedural purity and side-effect analysis (call-graph summaries).

The paper's porting constraint that ``do concurrent`` bodies may only
invoke ``pure`` procedures cannot be checked one loop at a time: an
impure ``call`` inside a hot region, a module variable written three
files away, or an aliased actual/dummy pair is invisible to per-loop
analysis. This module builds the whole-codebase call graph from the
frontend symbol index (:mod:`repro.fortran.frontend.resolve`, including
``use``-renamed and ``contains``-nested routines), computes per-procedure
side-effect summaries bottom-up over the SCC condensation (a fixed point
handles recursion), and derives the ``IP1xx`` rule family:

* **IP101** -- impure call inside a ``do concurrent``/parallel region
  (with a ``pure``-attribute fix-it when the summary proves the callee
  effectively pure);
* **IP102** -- hidden loop-carried dependence through a module variable
  written (transitively) by a callee;
* **IP103** -- actual-argument aliasing that violates the callee's dummy
  ``intent`` pattern;
* **IP104** -- declared-vs-inferred ``intent`` mismatches and missing
  ``intent`` on routines called from parallel regions, with inference
  fix-its.

Summaries are cached keyed by a content hash of the routine body, its
visible module environment, and its callees' keys -- so re-lint after an
edit recomputes only the changed routine and its (transitive) callers.
Everything read off a file (routine blocks, call sites, module
variables, the symbol index) comes from its cached fact sheet
(:mod:`repro.analysis.facts`). The joins run on every call; on a
summary-cache miss the effect scan also reads the routine's body lines.

Direction of conservatism: a finding is only emitted on *proof*. Calls
to routines the tree does not define resolve to nothing and stay silent
(flagging every external library call would drown real findings), and a
routine whose body writes names the analyzer cannot place (undeclared,
neither dummy nor module variable) is ``UNKNOWN`` -- neither trusted as
pure nor reported as impure.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from dataclasses import dataclass, field, replace

from repro.analysis.dependence import INTRINSICS
from repro.analysis.facts import (
    _CACHE_LIMIT,
    CallSite as CallSite,  # re-exported: the call sites summaries carry
    FileFacts,
    _base_name,
    _Block,
    _split_top_commas,
    _strip_if_guard,
    clear_fact_sheets,
    file_facts,
    summary_facts,
)
from repro.analysis.findings import Finding, RelatedLocation
from repro.analysis.fixes import Fix, _edit_for
from repro.fortran.lexer import LineKind, called_name, classify_line
from repro.fortran.frontend.resolve import ModuleIndex, RoutineSym, join_index
from repro.fortran.parser import ParallelRegion, declared_entities
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.tree_io import shown
from repro.obs.telemetry import current as _telemetry

_IDENT_RE = re.compile(r"\b([a-z_]\w*)\b", re.I)
_ASSIGN_SPLIT_RE = re.compile(r"(?<![=<>/*+\-])=(?![=>])")
_LHS_TAIL_RE = re.compile(
    r"([a-z_]\w*)\s*(?:\((?:[^()]|\([^()]*\))*\))?\s*"
    r"(?:%\s*\w+\s*(?:\((?:[^()]|\([^()]*\))*\))?\s*)*$",
    re.I,
)
_IO_RE = re.compile(
    r"^\s*(write|print|open|close|rewind|flush|inquire|backspace|endfile)\b"
    r"|^\s*read\s*\(",
    re.I,
)
_STOP_RE = re.compile(r"^\s*(error\s+)?stop\b", re.I)
_ALLOC_RE = re.compile(r"^\s*(de)?allocate\s*\(", re.I)
#: What a statement the three effect patterns above match begins with,
#: lowercased. ``re.I`` also folds ``ſ``, ``ı``, ``K`` and ``İ`` onto ASCII
#: letters, so the test holds for an ASCII head only.
_EFFECT_HEADS = (
    "write", "print", "open", "close", "rewind", "flush", "inquire",
    "backspace", "endfile", "read", "error", "stop", "allocate", "deallocate",
)
_EFFECT_HEAD_LEN = max(map(len, _EFFECT_HEADS))
_INTENT_CLAUSE_RE = re.compile(r"\bintent\s*\(\s*in\s*\)", re.I)
_INDENT_RE = re.compile(r"^(\s*)")

#: Statement keywords never counted as variable reads.
_STMT_WORDS = frozenset(
    {
        "if", "then", "else", "elseif", "endif", "end", "do", "enddo",
        "while", "concurrent", "call", "exit", "cycle", "return", "where",
        "elsewhere", "endwhere", "select", "case", "stop", "error", "only",
        "use", "true", "false", "and", "or", "not", "eq", "ne", "lt", "le",
        "gt", "ge", "eqv", "neqv", "allocate", "deallocate", "write",
        "print", "read", "open", "close", "rewind", "flush", "inquire",
        "backspace", "endfile", "result", "implicit", "none",
    }
) | INTRINSICS

_SUMMARY_CACHE: dict[str, "ProcedureSummary"] = {}


def clear_summary_cache() -> None:
    """Drop every cached summary and fact sheet (tests and memory hygiene)."""
    _SUMMARY_CACHE.clear()
    clear_fact_sheets()


class Purity(enum.Enum):
    """Three-state inferred purity of one procedure."""

    PURE = "pure"        # provably side-effect free
    IMPURE = "impure"    # provable side effect, with evidence sites
    UNKNOWN = "unknown"  # unresolved calls or unplaceable writes


@dataclass(frozen=True, slots=True)
class Effect:
    """One impurity evidence site inside a procedure (or a callee)."""

    kind: str    # "global-write" | "io" | "stop" | "allocate-global"
    detail: str  # the variable / statement the effect is about
    file: str
    line: int    # 0-based


@dataclass(frozen=True, slots=True)
class ProcedureSummary:
    """Everything the analyzer knows about one procedure's side effects."""

    name: str
    kind: str
    file: str
    line: int        # 0-based definition line
    end_line: int
    module: str = ""
    declared_pure: bool = False
    acc_routine: bool = False
    dummies: tuple[str, ...] = ()
    #: dummy -> declared intent ("" when the declaration carries none)
    declared_intents: tuple[tuple[str, str], ...] = ()
    #: (dummy, 0-based declaration line, every entity that line declares,
    #: its declared intent), for each dummy's first declaration
    decl_sites: tuple[tuple[str, int, tuple[str, ...], str], ...] = ()
    dummy_reads: frozenset[str] = frozenset()
    dummy_writes: frozenset[str] = frozenset()
    globals_read: tuple[str, ...] = ()     # qualified module::var, sorted
    globals_written: tuple[str, ...] = ()  # qualified module::var, sorted
    effects: tuple[Effect, ...] = ()       # impurity evidence, transitive
    calls: tuple[CallSite, ...] = ()
    unresolved_calls: tuple[str, ...] = ()
    purity: Purity = Purity.UNKNOWN
    key: str = ""  # content-hash cache key

    def declared_intent_of(self, dummy: str) -> str:
        return dict(self.declared_intents).get(dummy, "")

    def inferred_intent_of(self, dummy: str) -> str:
        """in/out/inout from the observed reads and writes (in if unused)."""
        if dummy in self.dummy_writes:
            return "inout" if dummy in self.dummy_reads else "out"
        return "in"

    def writes_dummy(self, dummy: str) -> bool:
        """Declared or inferred: does the procedure write this dummy?"""
        return (
            dummy in self.dummy_writes
            or self.declared_intent_of(dummy) in ("out", "inout")
        )


@dataclass(slots=True)
class CacheStats:
    """Summary-cache traffic for one :func:`summarize` call."""

    hits: int = 0
    misses: int = 0


@dataclass(slots=True)
class InterprocResult:
    """Call graph + per-procedure summaries for one codebase."""

    index: ModuleIndex
    summaries: dict[str, ProcedureSummary] = field(default_factory=dict)
    order: tuple[str, ...] = ()  # bottom-up summarization order
    stats: CacheStats = field(default_factory=CacheStats)
    #: the fact sheets of the codebase's files, in file order
    facts: tuple[FileFacts, ...] = ()

    def summary_for_call(
        self, name: str, file: str | None = None
    ) -> ProcedureSummary | None:
        """Summary of a called routine, applying ``use`` renames."""
        sym = self.index.resolve_call(name, file)
        if sym is None:
            return None
        return self.summaries.get(sym.name)


@dataclass(frozen=True, slots=True)
class CallBlocker:
    """One call site that blocks porting its region to ``do concurrent``."""

    callee: str
    file: str
    line: int      # 0-based call line
    rule: str      # IP101 | IP102
    why: str       # human fragment: "writes module variable accum" ...
    fixable: bool  # True when the IP101 pure-attribute fix-it applies


# -- body scanning -------------------------------------------------------------


def _identifiers(text: str) -> set[str]:
    return set(map(str.lower, _IDENT_RE.findall(text))) - _STMT_WORDS


def _assignment_parts(code: str) -> tuple[str, str, str] | None:
    """Split an assignment into (guard, lhs base, rest-to-read), else None."""
    m = _ASSIGN_SPLIT_RE.search(code)
    if m is None:
        return None
    lhs_text, rhs = code[: m.start()], code[m.end():]
    tail = _LHS_TAIL_RE.search(lhs_text)
    if tail is None:
        return None
    return lhs_text[: tail.start()], tail.group(1).lower(), rhs


def _module_variables(
    sheets: list[FileFacts], index: ModuleIndex
) -> dict[str, set[str]]:
    """module -> variable names declared in its specification part, for
    the modules the index knows (a module statement the index skipped,
    inside an interface block, declares nothing)."""
    out: dict[str, set[str]] = {}
    for sheet in sheets:
        for m, vs in sheet.module_vars:
            names = out.setdefault(m, set())
            if m in index.modules:
                names.update(vs)
    return out


def _visible_globals(
    sym: RoutineSym,
    index: ModuleIndex,
    module_vars: dict[str, set[str]],
) -> dict[str, str]:
    """local name -> qualified ``module::var`` visible inside ``sym``."""
    visible: dict[str, str] = {}
    for edge in index.use_edges.get(sym.file, ()):
        mvars = module_vars.get(edge.module)
        if mvars is None:
            continue
        if edge.only:
            for local, actual in edge.only:
                if actual in mvars:
                    visible[local] = f"{edge.module}::{actual}"
        else:
            for v in mvars:
                visible[v] = f"{edge.module}::{v}"
    if sym.module:
        for v in module_vars.get(sym.module, ()):
            visible[v] = f"{sym.module}::{v}"
    return visible


def _strip_child_lines(blocks: dict[str, _Block]) -> dict[str, _Block]:
    """The blocks with contains-nested child bodies left out of their
    host's body lines and calls (copies: the sheets' blocks stay whole)."""
    children: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for b in blocks.values():
        if b.sym.parent:
            key = (b.sym.file, b.sym.parent)
            children.setdefault(key, []).append((b.sym.line, b.sym.end_line))
    out = dict(blocks)
    for name, block in blocks.items():
        spans = children.get((block.sym.file, name))
        if spans:
            out[name] = replace(
                block,
                calls=tuple(
                    c for c in block.calls
                    if not any(first <= c.line <= last for first, last in spans)
                ),
                children=tuple(spans),
            )
    return out


def _scan_effects(
    cb: Codebase,
    block: _Block,
    visible: dict[str, str],
    callee_summaries: dict[str, ProcedureSummary | None],
) -> ProcedureSummary:
    """Phase-2 scan: reads/writes/effects with callee summaries folded in."""
    sym = block.sym
    file = cb.file(sym.file)
    dummies = set(sym.dummies)
    known_local = block.locals_ | {sym.result} if sym.result else set(block.locals_)
    dummy_reads: set[str] = set()
    dummy_writes: set[str] = set()
    globals_read: set[str] = set()
    globals_written: set[str] = set()
    effects: set[Effect] = set()
    unresolved: set[str] = set()
    unknown_write = False

    def note_reads(names: set[str]) -> None:
        for n in names:
            if n in dummies:
                dummy_reads.add(n)
            elif n in visible and n not in known_local:
                globals_read.add(visible[n])

    def note_write(n: str, line: int) -> None:
        nonlocal unknown_write
        if n in dummies:
            dummy_writes.add(n)
        elif n in known_local:
            pass
        elif n in visible:
            globals_written.add(visible[n])
            effects.add(
                Effect("global-write", visible[n], sym.file, line)
            )
        else:
            unknown_write = True

    for i in block.body_lines:
        line = file.lines[i]
        kind = classify_line(line)
        if kind in (LineKind.BLANK, LineKind.COMMENT, LineKind.DIRECTIVE):
            continue
        code = line.split("!", 1)[0]
        guard, action = _strip_if_guard(code)
        if kind is LineKind.CALL or called_name(action) is not None:
            # folded in below, via the callee summary; the guard of a
            # one-line `if (cond) call ...` still reads its operands
            note_reads(_identifiers(guard))
            continue
        if "::" in line and declared_entities(line):
            continue  # declaration, not an executable statement
        head = action.lstrip()[:_EFFECT_HEAD_LEN]
        if not head.isascii() or head.lower().startswith(_EFFECT_HEADS):
            if _IO_RE.match(action):
                effects.add(Effect("io", shown(action.strip()[:40]), sym.file, i))
                note_reads(_identifiers(code))
                continue
            if _STOP_RE.match(action):
                effects.add(Effect("stop", shown(action.strip()[:40]), sym.file, i))
                note_reads(_identifiers(guard))
                continue
            if _ALLOC_RE.match(action):
                inner = action[action.index("(") + 1 : action.rindex(")")] if ")" in action else ""
                for arg in _split_top_commas(inner):
                    base = _base_name(arg)
                    if base in visible and base not in known_local | dummies:
                        effects.add(
                            Effect("allocate-global", visible[base], sym.file, i)
                        )
                        globals_written.add(visible[base])
                continue
        if kind is LineKind.STATEMENT:
            parts = _assignment_parts(code)
            if parts is not None:
                guard, lhs, rhs = parts
                note_write(lhs, i)
                note_reads(_identifiers(guard) | _identifiers(rhs))
                continue
        note_reads(_identifiers(code))

    # fold the callees in: their effects are ours, their dummy writes land
    # on our actuals, their global traffic is ours transitively
    for site in block.calls:
        callee = callee_summaries.get(site.callee)
        if callee is None:
            unresolved.add(site.callee)
            continue
        effects.update(callee.effects)
        globals_read.update(callee.globals_read)
        globals_written.update(callee.globals_written)
        if callee.purity is Purity.UNKNOWN:
            unknown_write = True
        for pos, actual in enumerate(site.actuals):
            if pos >= len(callee.dummies) or not actual:
                continue
            d = callee.dummies[pos]
            if callee.writes_dummy(d):
                note_write(actual, site.line)
            if d in callee.dummy_reads or callee.declared_intent_of(d) in (
                "in", "inout",
            ):
                note_reads({actual})

    if effects:
        purity = Purity.IMPURE
    elif unknown_write or unresolved:
        purity = Purity.UNKNOWN
    else:
        purity = Purity.PURE
    return ProcedureSummary(
        name=sym.name, kind=sym.kind, file=sym.file, line=sym.line,
        end_line=sym.end_line, module=sym.module,
        declared_pure=sym.declared_pure, acc_routine=sym.acc_routine,
        dummies=sym.dummies,
        declared_intents=block.intents,
        decl_sites=block.decl_sites,
        dummy_reads=frozenset(dummy_reads),
        dummy_writes=frozenset(dummy_writes),
        globals_read=tuple(sorted(globals_read)),
        globals_written=tuple(sorted(globals_written)),
        effects=tuple(sorted(effects, key=lambda e: (e.file, e.line, e.kind))),
        calls=block.calls,
        unresolved_calls=tuple(sorted(unresolved)),
        purity=purity,
    )


# -- SCC condensation ----------------------------------------------------------


def _sccs(order: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative; returns components bottom-up (callees first)."""
    idx: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    for root in order:
        if root in idx:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        idx[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if nxt not in idx:
                    idx[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], idx[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == idx[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(sorted(comp))
    return out


# -- the summary pass ----------------------------------------------------------


def _record_summary(result: str) -> None:
    tel = _telemetry()
    if not tel.enabled:
        return
    tel.metrics.counter(
        "interproc_summaries_total",
        "procedure summaries by cache outcome",
        labelnames=("result",),
    ).labels(result=result).inc()


def summarize(
    cb: Codebase, *, facts: list[FileFacts] | None = None
) -> InterprocResult:
    """Build the call graph and every procedure summary for ``cb``.

    The symbol index, routine blocks and module variables are joined from
    the files' fact sheets (``facts``, in file order, when the caller has
    already looked them up); a sheet computed here holds only these
    summary inputs, not the per-file rules. Summaries come from the content-hash cache
    when the routine body, its visible module environment, and all its
    callees' keys are unchanged; otherwise they are recomputed bottom-up
    (SCCs of the call graph in reverse topological order, iterating
    recursive components to a fixed point -- effect sets only grow, so it
    terminates).
    """
    sheets = facts if facts is not None else [summary_facts(f) for f in cb.files]
    index = join_index(sheet.index for sheet in sheets)
    module_vars = _module_variables(sheets, index)
    blocks: dict[str, _Block] = {}
    for sheet in sheets:  # first wins, as in the index
        for block in sheet.blocks:
            blocks.setdefault(block.sym.name, block)
    blocks = _strip_child_lines(blocks)

    visible: dict[str, dict[str, str]] = {}
    env_hash: dict[str, str] = {}
    edges: dict[str, set[str]] = {}
    resolved_callee: dict[str, dict[str, str]] = {}
    for name, block in blocks.items():
        vis = _visible_globals(block.sym, index, module_vars)
        visible[name] = vis
        env_hash[name] = hashlib.sha256(
            repr(sorted(vis.items())).encode()
        ).hexdigest()
        callee_names: dict[str, str] = {}
        for site in block.calls:
            target = index.resolve_call(site.callee, block.sym.file)
            if target is not None and target.name in blocks:
                callee_names[site.callee] = target.name
        resolved_callee[name] = callee_names
        edges[name] = set(callee_names.values())

    result = InterprocResult(index=index, facts=tuple(sheets))
    order: list[str] = []
    for comp in _sccs(sorted(blocks), edges):
        in_comp = set(comp)
        external_keys = sorted(
            result.summaries[c].key
            for n in comp
            for c in edges[n]
            if c not in in_comp and c in result.summaries
        )
        comp_digest = hashlib.sha256()
        for n in comp:
            comp_digest.update(blocks[n].body_hash.encode())
            comp_digest.update(env_hash[n].encode())
        for k in external_keys:
            comp_digest.update(k.encode())
        comp_hash = comp_digest.hexdigest()

        keys = {n: f"{n}:{comp_hash}" for n in comp}
        if all(keys[n] in _SUMMARY_CACHE for n in comp):
            for n in comp:
                result.summaries[n] = _SUMMARY_CACHE[keys[n]]
                result.stats.hits += 1
                _record_summary("cached")
                order.append(n)
            continue

        # fixed point across the component; a single node with no self edge
        # reads no summary of its own, so one pass is its fixed point
        current: dict[str, ProcedureSummary | None] = {n: None for n in comp}
        recursive = len(comp) > 1 or comp[0] in edges[comp[0]]
        changed = True
        rounds = 0
        while changed and rounds < (2 * len(comp) + 3 if recursive else 1):
            changed = False
            rounds += 1
            for n in comp:
                callee_map: dict[str, ProcedureSummary | None] = {}
                for site in blocks[n].calls:
                    target = resolved_callee[n].get(site.callee)
                    if target is None:
                        callee_map[site.callee] = None
                    elif target in in_comp:
                        callee_map[site.callee] = current[target]
                    else:
                        callee_map[site.callee] = result.summaries.get(target)
                nxt = _scan_effects(cb, blocks[n], visible[n], callee_map)
                if current[n] != nxt:
                    changed = True
                current[n] = nxt
        for n in comp:
            summary = replace(current[n], key=keys[n])
            result.summaries[n] = summary
            if len(_SUMMARY_CACHE) >= _CACHE_LIMIT:
                _SUMMARY_CACHE.clear()
            _SUMMARY_CACHE[keys[n]] = summary
            result.stats.misses += 1
            _record_summary("computed")
            order.append(n)
    result.order = tuple(order)
    return result


def _call_blocker(s: ProcedureSummary) -> tuple[str, str, bool] | None:
    """(rule, why-fragment, fixable) when calling ``s`` blocks a parallel
    region, else None. Conservative: UNKNOWN purity never blocks."""
    if s.globals_written:
        names = ", ".join(s.globals_written)
        return ("IP102", f"writes module variable(s) {names}", False)
    if s.purity is Purity.IMPURE:
        e = s.effects[0]
        return (
            "IP101",
            f"is provably impure ({e.kind} at {e.file}:{e.line + 1})",
            False,
        )
    if s.declared_pure:
        return None
    if s.purity is Purity.PURE:
        return ("IP101", "is effectively pure but not declared pure", True)
    return None


def region_call_blockers(
    file: SourceFile, region: ParallelRegion, result: InterprocResult
) -> list[CallBlocker]:
    """Call sites inside ``region`` that make it unsafe to port to DC
    (a one-line ``if (cond) call`` included), read off the sheet of
    ``file`` that ``result`` was summarized from."""
    sheet = next(s for s in result.facts if s.name == file.name)
    out: list[CallBlocker] = []
    for site in sheet.calls:
        if not region.start <= site.line <= region.end:
            continue
        summary = result.summary_for_call(site.callee, file.name)
        if summary is None:
            continue
        blk = _call_blocker(summary)
        if blk is None:
            continue
        rule, why, fixable = blk
        out.append(CallBlocker(site.callee, file.name, site.line, rule, why, fixable))
    return out


# -- IP findings ---------------------------------------------------------------


def _pure_attribute_fix(cb: Codebase, s: ProcedureSummary) -> Fix:
    """The IP101 fix-it: prepend ``pure`` to the callee's header line."""
    callee_file = cb.file(s.file)
    header = callee_file.lines[s.line]
    fixed = _INDENT_RE.sub(r"\1pure ", header, count=1)
    return Fix(
        "IP101",
        f"declare {s.name} pure (summary proves no side effects)",
        (_edit_for(callee_file, s.line, s.line, (fixed,)),),
    )


def _region_call_findings(
    cb: Codebase,
    result: InterprocResult,
    region_called: set[str],
    sheets: list[FileFacts],
) -> list[Finding]:
    """IP101/IP102 at call sites inside parallel contexts."""
    findings: list[Finding] = []
    for sheet in sheets:
        for site, label in zip(sheet.calls, sheet.checked().call_spans):
            if label is None:
                continue
            name = site.callee
            summary = result.summary_for_call(name, sheet.name)
            if summary is None:
                continue
            region_called.add(summary.name)
            blk = _call_blocker(summary)
            if blk is None:
                continue
            rule, why, fixable = blk
            related = [RelatedLocation(
                summary.file, summary.line + 1,
                f"{summary.name} defined here",
            )]
            for e in summary.effects[:2]:
                related.append(RelatedLocation(
                    e.file, e.line + 1, f"{e.kind}: {e.detail}"
                ))
            if rule == "IP102":
                msg = (f"call to {name} inside {label} {why}: hidden "
                       f"loop-carried dependence across iterations")
            elif fixable:
                msg = (f"call to {name} inside {label}: callee {why}; "
                       f"the fix-it adds the pure attribute")
            else:
                msg = (f"call to {name} inside {label}: callee {why}; "
                       f"do concurrent requires pure procedures")
            fix = _pure_attribute_fix(cb, summary) if fixable else None
            findings.append(Finding(
                rule, sheet.name, site.line + 1, msg, context=name, fix=fix,
                related=tuple(related),
            ))
    return findings


def _alias_findings(
    result: InterprocResult, sheets: list[FileFacts]
) -> list[Finding]:
    """IP103: same base name passed twice where a written dummy is involved."""
    findings: list[Finding] = []
    for sheet in sheets:
        for site in sheet.calls:
            name = site.callee
            summary = result.summary_for_call(name, sheet.name)
            if summary is None:
                continue
            actuals = site.actuals
            hit = None
            for a in range(len(actuals)):
                for b in range(a + 1, len(actuals)):
                    if not actuals[a] or actuals[a] != actuals[b]:
                        continue
                    if a >= len(summary.dummies) or b >= len(summary.dummies):
                        continue
                    da, db = summary.dummies[a], summary.dummies[b]
                    if summary.writes_dummy(da) or summary.writes_dummy(db):
                        hit = (actuals[a], da, db)
                        break
                if hit:
                    break
            if hit is None:
                continue
            base, da, db = hit
            written = da if summary.writes_dummy(da) else db
            findings.append(Finding(
                "IP103", sheet.name, site.line + 1,
                f"call to {name} passes {base} for both dummies {da} and "
                f"{db} while {written} is written: aliased actual "
                f"arguments are undefined behavior",
                context=base,
                related=(RelatedLocation(
                    summary.file, summary.line + 1,
                    f"{summary.name} defined here",
                ),),
            ))
    return findings


def _intent_findings(
    cb: Codebase, result: InterprocResult, region_called: set[str]
) -> list[Finding]:
    """IP104: declared-vs-inferred intent mismatches and missing intents."""
    findings: list[Finding] = []
    for name in sorted(result.summaries):
        s = result.summaries[name]
        try:
            file = cb.file(s.file)
        except KeyError:
            continue
        sites = {dummy: site for dummy, *site in s.decl_sites}
        for dummy in s.dummies:
            site = sites.get(dummy)
            if site is None:
                continue
            line_idx, entities, declared = site
            inferred = s.inferred_intent_of(dummy)
            related = (RelatedLocation(
                s.file, s.line + 1, f"{s.name} defined here"
            ),)
            if declared == "in" and dummy in s.dummy_writes:
                fix = None
                if all(e in s.dummy_writes for e in entities):
                    fixed = _INTENT_CLAUSE_RE.sub(
                        "intent(inout)", file.lines[line_idx], count=1
                    )
                    fix = Fix(
                        "IP104",
                        f"declare {', '.join(entities)} intent(inout)",
                        (_edit_for(file, line_idx, line_idx, (fixed,)),),
                    )
                findings.append(Finding(
                    "IP104", s.file, line_idx + 1,
                    f"dummy {dummy} of {s.name} is declared intent(in) "
                    f"but the body writes it; intent(inout) matches the "
                    f"observed access",
                    context=dummy, fix=fix, related=related,
                ))
            elif not declared and s.name in region_called:
                fix = None
                code = file.lines[line_idx].split("!", 1)[0]
                same_inferred = all(
                    e in s.dummies and s.inferred_intent_of(e) == inferred
                    for e in entities
                )
                if same_inferred and "::" in code:
                    head, _, tail = file.lines[line_idx].partition("::")
                    fixed = f"{head.rstrip()}, intent({inferred}) ::{tail}"
                    fix = Fix(
                        "IP104",
                        f"declare {', '.join(entities)} intent({inferred})",
                        (_edit_for(file, line_idx, line_idx, (fixed,)),),
                    )
                findings.append(Finding(
                    "IP104", s.file, line_idx + 1,
                    f"dummy {dummy} of {s.name} (called from a parallel "
                    f"region) has no declared intent; the summary infers "
                    f"intent({inferred})",
                    context=dummy, fix=fix, related=related,
                ))
    return findings


def interproc_findings(cb: Codebase, result: InterprocResult) -> list[Finding]:
    """All IP1xx findings for ``cb`` given its summary ``result``.

    The call sites, and the parallel span around each, come from the fact
    sheets ``result`` was summarized from (their lint part is computed
    here when only the summary pass has read them).
    """
    sheets = [
        sheet if sheet.lint is not None else file_facts(file)
        for file, sheet in zip(cb.files, result.facts)
    ]
    for sheet in sheets:
        sheet.checked()
    region_called: set[str] = set()
    findings = _region_call_findings(cb, result, region_called, sheets)
    findings.extend(_alias_findings(result, sheets))
    findings.extend(_intent_findings(cb, result, region_called))
    return findings


# -- call-graph export ---------------------------------------------------------


def callgraph_json(result: InterprocResult) -> str:
    """Byte-stable JSON call graph (``repro lint --call-graph json``)."""
    routines: dict[str, dict] = {}
    for name in sorted(result.summaries):
        s = result.summaries[name]
        calls: list[str] = []
        for site in s.calls:
            target = result.index.resolve_call(site.callee, s.file)
            if target is not None and target.name in result.summaries:
                calls.append(target.name)
        routines[name] = {
            "file": s.file,
            "line": s.line + 1,
            "kind": s.kind,
            "module": s.module,
            "purity": s.purity.value,
            "declared_pure": s.declared_pure,
            "acc_routine": s.acc_routine,
            "globals_written": list(s.globals_written),
            "calls": sorted(set(calls)),
            "unresolved": list(s.unresolved_calls),
        }
    return json.dumps(
        {"schema": "repro-callgraph/1", "routines": routines},
        indent=2, sort_keys=True,
    ) + "\n"


def callgraph_dot(result: InterprocResult) -> str:
    """Graphviz call graph, nodes colored by inferred purity."""
    color = {Purity.PURE: "darkgreen", Purity.IMPURE: "red3",
             Purity.UNKNOWN: "gray40"}
    out = ["digraph callgraph {", "  rankdir=LR;",
           '  node [fontname="monospace"];']
    externals: set[str] = set()
    for name in sorted(result.summaries):
        s = result.summaries[name]
        shape = "ellipse" if s.kind == "subroutine" else "box"
        out.append(
            f'  "{name}" [label="{name}\\n{s.purity.value}", '
            f"color={color[s.purity]}, shape={shape}];"
        )
        externals.update(s.unresolved_calls)
    for ext in sorted(externals):
        out.append(f'  "{ext}" [style=dashed, color=gray60];')
    for name in sorted(result.summaries):
        s = result.summaries[name]
        edges: set[str] = set()
        for site in s.calls:
            target = result.index.resolve_call(site.callee, s.file)
            if target is not None and target.name in result.summaries:
                edges.add(target.name)
        for tgt in sorted(edges):
            out.append(f'  "{name}" -> "{tgt}";')
        for ext in sorted(set(s.unresolved_calls)):
            out.append(f'  "{name}" -> "{ext}" [style=dashed];')
    out.append("}")
    return "\n".join(out) + "\n"
