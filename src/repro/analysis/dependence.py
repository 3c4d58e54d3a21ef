"""Shared dependence core: hazard sets and Fortran access analysis.

This module is the single place the repo answers "may these two pieces of
work race?" -- both the runtime (fusion planner, shadow checker) and the
Fortran lint front end build on it:

* :func:`hazards_between` / :func:`depends` -- classic RAW/WAR/WAW set
  logic over named read/write sets (what the fusion planner and the async
  race detector need);
* :func:`array_refs` / :func:`classify_subscript` /
  :func:`analyze_loop_body` -- statement-level analysis of a Fortran loop
  body relative to its parallel indices, deciding whether the loop is safe
  to express as ``do concurrent`` (no loop-carried dependences, reductions
  declared, scalars privatizable) per the paper's SIV port taxonomy.

The module is dependency-free (strings and stdlib only) so both
``repro.runtime`` and ``repro.fortran`` can import it without cycles.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class Hazard(enum.Enum):
    """Data-dependence hazard kinds between an earlier and a later access."""

    RAW = "raw"  # read-after-write (true dependence)
    WAR = "war"  # write-after-read (anti dependence)
    WAW = "waw"  # write-after-write (output dependence)


#: Separator for qualified access tokens: ``"rho@g2m"`` names a disjoint
#: sub-region (here: the axis-2 minus ghost shell) of logical array ``rho``.
ACCESS_QUALIFIER_SEP = "@"


def split_access(token: str) -> tuple[str, str]:
    """Split an access token into (base array name, region qualifier).

    An unqualified token (no ``@``) covers the whole array; its qualifier
    is the empty string.
    """
    base, _, qual = token.partition(ACCESS_QUALIFIER_SEP)
    return base, qual


def base_name(token: str) -> str:
    """The logical array a (possibly qualified) access token refers to."""
    return token.partition(ACCESS_QUALIFIER_SEP)[0]


def accesses_alias(a: str, b: str) -> bool:
    """May the two access tokens touch overlapping storage?

    Different base arrays never alias. Same base array: an unqualified
    access covers everything (aliases with any qualifier); two qualified
    accesses alias only when they name the same sub-region. Distinct
    qualifiers of the same array are disjoint *by convention* -- emitters
    (e.g. the halo engine's per-direction ghost-shell unpacks) must only
    use qualifiers for regions that genuinely do not overlap.
    """
    ab, aq = split_access(a)
    bb, bq = split_access(b)
    if ab != bb:
        return False
    return not aq or not bq or aq == bq


def _any_alias(first: Iterable[str], second: set[str]) -> bool:
    return any(accesses_alias(a, b) for a in first for b in second)


def hazards_between(
    first_reads: Iterable[str],
    first_writes: Iterable[str],
    second_reads: Iterable[str],
    second_writes: Iterable[str],
) -> frozenset[Hazard]:
    """Hazards forcing ``second`` to run after ``first``.

    Operates on named access sets (logical arrays); the runtime fusion
    planner, the async-queue race detector, and the region-level Fortran
    lint all call this instead of keeping private copies of the set logic.
    Tokens may carry a region qualifier (``"rho@g2m"``); qualified accesses
    of the same array with different qualifiers are treated as disjoint
    (see :func:`accesses_alias`).
    """
    fr = set(first_reads)
    fw, sr, sw = set(first_writes), set(second_reads), set(second_writes)
    out = set()
    if any(ACCESS_QUALIFIER_SEP in t for t in fr | fw | sr | sw):
        if _any_alias(sr, fw):
            out.add(Hazard.RAW)
        if _any_alias(sw, fr):
            out.add(Hazard.WAR)
        if _any_alias(sw, fw):
            out.add(Hazard.WAW)
        return frozenset(out)
    if sr & fw:
        out.add(Hazard.RAW)
    if sw & fr:
        out.add(Hazard.WAR)
    if sw & fw:
        out.add(Hazard.WAW)
    return frozenset(out)


def depends(
    first_reads: Iterable[str],
    first_writes: Iterable[str],
    second_reads: Iterable[str],
    second_writes: Iterable[str],
) -> bool:
    """True if any hazard orders ``second`` after ``first``."""
    return bool(hazards_between(first_reads, first_writes, second_reads, second_writes))


# -- Fortran expression parsing ------------------------------------------------

_IDENT = r"[a-z_]\w*"
#: name( ... ) with at most one nested paren level (enough for indirect
#: subscripts like hist(bin0(i,j))).
_REF_RE = re.compile(rf"\b({_IDENT})\s*(\([^()]*(?:\([^()]*\)[^()]*)*\))", re.I)
_IDENT_RE = re.compile(rf"\b({_IDENT})\b(?!\s*\()", re.I)
_LHS_RE = re.compile(rf"^\s*({_IDENT})\s*(\(.*\))?\s*$", re.I | re.S)
_ASSIGN_SPLIT_RE = re.compile(r"(?<![=<>/*+\-])=(?!=)")

#: Intrinsics whose parenthesized form is a call, not an array reference.
INTRINSICS = frozenset(
    {
        "abs", "atan2", "cos", "dble", "exp", "huge", "int", "log", "max",
        "maxval", "merge", "min", "minval", "mod", "nint", "real", "sign",
        "sin", "size", "sqrt", "sum", "tiny",
    }
)

_KEYWORDS = frozenset({"if", "then", "else", "endif", "and", "or", "not"})


@dataclass(frozen=True, slots=True)
class ArrayRef:
    """One ``name(sub, sub, ...)`` reference with normalized subscripts."""

    name: str
    subscripts: tuple[str, ...]

    @property
    def key(self) -> tuple[str, ...]:
        """Normalized subscript tuple for exact-match comparison."""
        return self.subscripts


def _split_top_commas(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _normalize(text: str) -> str:
    return "".join(text.lower().split())


def array_refs(expr: str) -> list[ArrayRef]:
    """Outermost array references in an expression (intrinsics unwrapped).

    References *inside* subscripts (indirect addressing) are not returned
    here; callers recurse via :func:`array_refs` on the subscript texts
    when they need the full read set.
    """
    out: list[ArrayRef] = []
    for m in _REF_RE.finditer(expr):
        name = m.group(1).lower()
        inner = m.group(2)[1:-1]
        if name in INTRINSICS:
            out.extend(array_refs(inner))
        else:
            subs = tuple(_normalize(s) for s in _split_top_commas(inner))
            out.append(ArrayRef(name, subs))
    return out


def scalar_reads(expr: str) -> set[str]:
    """Plain identifiers read in an expression (not followed by ``(``)."""
    out = set()
    for m in _IDENT_RE.finditer(expr):
        name = m.group(1).lower()
        if name not in _KEYWORDS and name not in INTRINSICS:
            out.add(name)
    return out


class SubscriptKind(enum.Enum):
    """How one subscript expression relates to the parallel indices."""

    INDEX = "index"        # exactly one parallel index variable
    SHIFTED = "shifted"    # parallel index +/- offset (or other use of one)
    INDIRECT = "indirect"  # contains an array reference (lookup table)
    FREE = "free"          # no parallel index involved (const, seq var, :)


def classify_subscript(text: str, indices: Sequence[str]) -> SubscriptKind:
    """Classify a subscript relative to the loop's parallel indices."""
    s = _normalize(text)
    idx = {i.lower() for i in indices}
    if s in idx:
        return SubscriptKind.INDEX
    if "(" in s:
        return SubscriptKind.INDIRECT
    used = {m.group(1).lower() for m in _IDENT_RE.finditer(s)}
    if used & idx:
        # i-1, i+1, 2*i, n1-i ... anything arithmetic on a parallel index
        return SubscriptKind.SHIFTED
    return SubscriptKind.FREE


@dataclass(frozen=True, slots=True)
class Statement:
    """One candidate assignment statement inside a loop body."""

    line: int          # 0-based index into the source file
    text: str
    protected: bool = False  # directly preceded by an !$acc atomic


def parse_assignment(text: str) -> tuple[str, str] | None:
    """Split ``lhs = rhs``; None for non-assignment statements."""
    code = text.split("!")[0]
    m = _ASSIGN_SPLIT_RE.search(code)
    if m is None:
        return None
    lhs, rhs = code[: m.start()], code[m.end():]
    if not _LHS_RE.match(lhs):
        return None
    return lhs.strip(), rhs.strip()


# -- loop-body dependence report ----------------------------------------------


@dataclass(frozen=True, slots=True)
class ArrayIssue:
    """One problematic array access pattern inside a loop."""

    array: str
    line: int
    detail: str


@dataclass(frozen=True, slots=True)
class ScalarIssue:
    """One problematic scalar pattern inside a loop."""

    scalar: str
    line: int
    detail: str


@dataclass(slots=True)
class LoopReport:
    """Everything :func:`analyze_loop_body` decided about one loop."""

    carried: list[ArrayIssue] = field(default_factory=list)        # DC001
    undeclared_reductions: list[ScalarIssue] = field(default_factory=list)  # DC002
    shared_writes: list[ArrayIssue] = field(default_factory=list)  # DC003
    carried_scalars: list[ScalarIssue] = field(default_factory=list)  # DC004
    indirect_writes: list[ArrayIssue] = field(default_factory=list)   # DC005
    #: protected (atomic) shared/indirect writes -- safe, but the port
    #: needs atomics retained or the Listing 4->5 reduction flip.
    atomic_protected: list[ArrayIssue] = field(default_factory=list)
    reads: set[str] = field(default_factory=set)    # array names read
    writes: set[str] = field(default_factory=set)   # array names written

    @property
    def safe(self) -> bool:
        """No error-level dependence issue (notes/atomics allowed)."""
        return not (self.carried or self.undeclared_reductions or self.shared_writes)


def analyze_loop_body(
    statements: Sequence[Statement],
    indices: Sequence[str],
    *,
    declared_reductions: Iterable[str] = (),
    locals_declared: Iterable[str] = (),
) -> LoopReport:
    """Dependence/locality analysis of one parallel loop body.

    ``indices`` are the loop's parallel index variables; ``declared_reductions``
    come from ``reduction(op:...)`` / ``reduce(op:...)`` clauses and
    ``locals_declared`` from DC ``local(...)`` clauses.
    """
    idx = tuple(i.lower() for i in indices)
    declared = {v.lower() for v in declared_reductions}
    localized = {v.lower() for v in locals_declared}
    report = LoopReport()

    # (subscripts, protected, line) per array
    writes: dict[str, list[tuple[ArrayRef, bool, int]]] = {}
    reads: dict[str, list[tuple[ArrayRef, int]]] = {}
    # scalar event stream: (name, is_write, reads_own_value, line) in order
    scalar_events: list[tuple[str, bool, bool, int]] = []

    for st in statements:
        parsed = parse_assignment(st.text)
        if parsed is None:
            continue
        lhs_text, rhs_text = parsed
        rhs_refs = array_refs(rhs_text)
        rhs_scalars = scalar_reads(rhs_text)
        m = _LHS_RE.match(lhs_text)
        assert m is not None
        lhs_name = m.group(1).lower()

        # reads: RHS refs, plus refs nested inside every subscript
        def record_read(ref: ArrayRef) -> None:
            reads.setdefault(ref.name, []).append((ref, st.line))
            report.reads.add(ref.name)
            for sub in ref.subscripts:
                for inner in array_refs(sub):
                    record_read(inner)
                rhs_scalars.update(scalar_reads(sub) - {ref.name})

        for ref in rhs_refs:
            record_read(ref)

        if m.group(2):  # array LHS
            subs = tuple(_normalize(s) for s in _split_top_commas(m.group(2)[1:-1]))
            wref = ArrayRef(lhs_name, subs)
            writes.setdefault(lhs_name, []).append((wref, st.protected, st.line))
            report.writes.add(lhs_name)
            for sub in subs:  # subscript contents are reads
                for inner in array_refs(sub):
                    record_read(inner)
                rhs_scalars.update(scalar_reads(sub))
        for name in sorted(rhs_scalars):
            scalar_events.append((name, False, False, st.line))
        if not m.group(2):  # scalar LHS
            scalar_events.append(
                (lhs_name, True, lhs_name in rhs_scalars, st.line)
            )

    _judge_arrays(report, writes, reads, idx)
    _judge_scalars(report, scalar_events, declared, localized)
    return report


def _judge_arrays(
    report: LoopReport,
    writes: dict[str, list[tuple[ArrayRef, bool, int]]],
    reads: dict[str, list[tuple[ArrayRef, int]]],
    idx: tuple[str, ...],
) -> None:
    for name, wlist in writes.items():
        plain_write_keys: set[tuple[str, ...]] = set()
        for wref, protected, line in wlist:
            kinds = [classify_subscript(s, idx) for s in wref.subscripts]
            if any(k is SubscriptKind.SHIFTED for k in kinds):
                report.carried.append(
                    ArrayIssue(name, line, f"write at shifted index {wref.subscripts}")
                )
                continue
            if any(k is SubscriptKind.INDIRECT for k in kinds):
                issue = ArrayIssue(
                    name, line, f"write through indirect subscript {wref.subscripts}"
                )
                (report.atomic_protected if protected else report.indirect_writes
                 ).append(issue)
                continue
            coverage = {
                s for s, k in zip(wref.subscripts, kinds) if k is SubscriptKind.INDEX
            }
            missing = [i for i in idx if i not in coverage]
            if missing:
                issue = ArrayIssue(
                    name, line,
                    f"element shared across iterations of {','.join(missing)}",
                )
                (report.atomic_protected if protected else report.shared_writes
                 ).append(issue)
                continue
            plain_write_keys.add(wref.key)
        # reads of a written array must match a write location exactly
        all_write_keys = {w.key for w, _, _ in wlist}
        for rref, line in reads.get(name, []):
            if rref.key in all_write_keys:
                continue
            if not plain_write_keys:
                continue  # already reported on the write side
            report.carried.append(
                ArrayIssue(
                    name, line,
                    f"read at {rref.subscripts} of array written at "
                    f"{sorted(plain_write_keys)[0]}",
                )
            )


def _judge_scalars(
    report: LoopReport,
    events: list[tuple[str, bool, bool, int]],
    declared: set[str],
    localized: set[str],
) -> None:
    assigned_first: set[str] = set()
    read_first: dict[str, int] = {}
    accumulates: set[str] = set()
    written: set[str] = set()
    for name, is_write, reads_self, line in events:
        if is_write:
            written.add(name)
            if reads_self:
                accumulates.add(name)
            if name not in read_first:
                assigned_first.add(name)
        else:
            if name not in assigned_first and name not in read_first:
                read_first[name] = line
    for name in sorted(written):
        if name in declared or name in localized or name in assigned_first:
            continue
        if name not in read_first:
            continue
        line = read_first[name]
        if name in accumulates:
            report.undeclared_reductions.append(
                ScalarIssue(name, line, "accumulated without a reduction clause")
            )
        else:
            report.carried_scalars.append(
                ScalarIssue(
                    name, line, "read before assignment; needs privatization"
                )
            )
