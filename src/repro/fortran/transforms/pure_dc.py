"""Code 5 (D2XU): zero OpenACC directives.

The last four directive classes go (SIV-E):

* array-reduction atomics -> flipped outer-DC / inner ``reduce`` loops
  (Listing 4 -> Listing 5); other atomics -> small code modifications;
* ``kernels`` regions -> Fortran intrinsics expanded into explicit DC
  reduction loops;
* ``routine`` -> ``-Minline`` (directives dropped); the one routine the
  compiler refuses to inline is inlined by hand via `repro.fortran.inline`;
  the ``declare``/``update`` pair its table needed goes with it;
* ``set device_num`` -> launch.sh + CUDA_VISIBLE_DEVICES (Listing 6, see
  `repro.runtime.launch`).

Finally the duplicate ``*_cpu`` setup routines are removed: under UM the
single (GPU) variants serve the setup phase too.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from repro.fortran.directives import DirectiveKind
from repro.fortran.inline import InlineRefusedError, inline_call, parse_routine
from repro.fortran.parser import (
    LineScan,
    apply_edits,
    find_directive_lines,
    find_kernels_regions,
    find_subroutines,
)
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms.base import TransformPass

ACCUM_RE = re.compile(r"^(\s*)(\w+)\((\w+)\)\s*=\s*\2\(\3\)\s*\+\s*(.+)$")
_MINVAL_RE = re.compile(r"^(\s*)(\w+)\s*=\s*minval\((\w+)\)\s*$", re.I)
_DC_RE = re.compile(r"^\s*do\s+concurrent\s*\(([^)]*)\)", re.I)
#: Routines nvfortran refuses to inline in the MAS port (SIV-E names one).
MANUAL_INLINE_ROUTINES = ("interp1",)


Edits = list[tuple[int, int, list[str]]]


def atomic_dc_loops(
    lines: list[str], scan: LineScan | None = None
) -> Iterator[tuple[int, int, list[int], bool]]:
    """Each outermost ``do concurrent`` nest that holds ``!$acc atomic`` lines.

    Yields ``(start, end, atomics, accumulates)``: the nest's header and
    closing ``enddo``, its atomic directive lines, and whether any of them
    guards an accumulation (Listing 4) rather than some other statement.
    The nests come off the loop table of ``scan`` (made when None) and
    the atomics off its directive table.
    """
    scan = scan or LineScan(lines)
    acc = list(scan.directives)
    end = -1
    for i in scan.dc_headers:
        if i <= end:
            continue
        end = scan.dc_end(i)
        atomics = [
            k
            for k in acc[bisect_right(acc, i) : bisect_left(acc, end)]
            if scan.directive(k).kind is DirectiveKind.ATOMIC
        ]
        if atomics:
            yield i, end, atomics, any(ACCUM_RE.match(lines[k + 1]) for k in atomics)


class PureDcPass(TransformPass):
    """Eliminate every remaining OpenACC directive."""

    def __init__(self, *, keep_cpu_duplicates: bool = False) -> None:
        #: Code 6's pipeline keeps the duplicate CPU routines since it runs
        #: without UM (SIV-F re-adds them).
        self.keep_cpu_duplicates = keep_cpu_duplicates

    # -- atomic rewrites -------------------------------------------------------

    def _flip_array_reduction(self, f: SourceFile, start: int, end: int) -> list[str]:
        """Listing 4 -> Listing 5 rewrite of one DC loop with atomics."""
        m = _DC_RE.match(f.lines[start])
        assert m is not None
        indices = [p.strip() for p in m.group(1).split(",")]
        # outer index = the one the accumulation target is indexed by
        pairs = []  # (target, rhs)
        for i in range(start + 1, end):
            am = ACCUM_RE.match(f.lines[i])
            if am:
                pairs.append((f"{am.group(2)}({am.group(3)})", am.group(4), am.group(3)))
        if not pairs:
            raise ValueError(f"no accumulation statements in DC loop at {start}")
        outer_var = pairs[0][2]
        outer = next(p for p in indices if p.startswith(f"{outer_var}="))
        inners = [p for p in indices if not p.startswith(f"{outer_var}=")]
        tmps = [f"tmp{n}" for n in range(len(pairs))]
        out = [f"      do concurrent ({outer})"]
        for t in tmps:
            out.append(f"        {t} = 0.")
        out.append(
            f"        do concurrent ({','.join(inners)}) reduce(+:{','.join(tmps)})"
        )
        for t, (_, rhs, _v) in zip(tmps, pairs):
            out.append(f"          {t} = {t} + {rhs}")
        out.append("        enddo")
        for t, (target, _, _v) in zip(tmps, pairs):
            out.append(f"        {target} = {t}")
        out.append("      enddo")
        return out

    def _atomic_edits(self, f: SourceFile, scan: LineScan) -> Edits:
        edits = []
        for start, end, atomics, accumulates in atomic_dc_loops(f.lines, scan):
            if accumulates:
                body = self._flip_array_reduction(f, start, end)
            else:
                # small code modification: drop the atomics, keep the
                # statements (rewritten to be race-free in MAS)
                body = [f.lines[k] for k in range(start, end + 1) if k not in atomics]
            edits.append((start, end, body))
        return edits

    # -- kernels expansion ----------------------------------------------------------

    def _kernels_edits(self, f: SourceFile, scan: LineScan) -> Edits:
        edits = []
        for region in find_kernels_regions(f, scan):
            if region.end - region.start != 2:
                raise ValueError(
                    f"unexpected kernels region shape in {f.name} at {region.start}"
                )
            m = _MINVAL_RE.match(f.lines[region.start + 1])
            if m is None:
                raise ValueError(
                    f"kernels region without a recognized intrinsic at {region.start}"
                )
            indent, lhs, arr = m.group(1), m.group(2), m.group(3)
            edits.append(
                (
                    region.start,
                    region.end,
                    [
                        f"{indent}do concurrent (ii=1:size({arr})) reduce(min:{lhs})",
                        f"{indent}  {lhs} = min({lhs}, {arr}(ii))",
                        f"{indent}enddo",
                    ],
                )
            )
        return edits

    # -- routine inlining -------------------------------------------------------------

    def _routine_edits(self, f: SourceFile, scan: LineScan) -> Edits:
        return [
            (i, i, []) for i in scan.directives
            if scan.directive(i).kind is DirectiveKind.ROUTINE
        ]

    def _manual_inline(self, cb: Codebase) -> None:
        for name in MANUAL_INLINE_ROUTINES:
            routine = None
            mentions = []  # per file, the lines holding the name
            for f in cb.files:
                scan = LineScan(f.lines)
                mentions.append(scan.rows(name))
                if mentions[-1]:  # the routine's header holds its name
                    for blk in find_subroutines(f, rf"^{name}$", scan):
                        routine = parse_routine(f, blk.start)
            if routine is None:
                continue
            call_re = re.compile(rf"^\s*call\s+{name}\s*\(")
            for f, rows in zip(cb.files, mentions):
                grown = 0  # lines earlier inlines added above the next row
                for i in rows:
                    if call_re.match(f.lines[i + grown]):
                        try:
                            grown += inline_call(f, i + grown, routine)
                        except InlineRefusedError:
                            pass

    # -- main -----------------------------------------------------------------------------

    def _data_edits(self, f: SourceFile, scan: LineScan) -> Edits:
        """The remaining declare/update and set device_num directives go."""
        return [
            (min(d.all_lines), max(d.all_lines), [])
            for d in find_directive_lines(
                f, DirectiveKind.DATA, DirectiveKind.SET_DEVICE, scan=scan
            )
        ]

    def apply(self, cb: Codebase) -> None:
        self._manual_inline(cb)
        steps = (self._routine_edits, self._atomic_edits, self._kernels_edits, self._data_edits)
        for f in cb.files:
            # each step reads the scan of the lines the previous one left
            scan = LineScan(f.lines)
            for step in steps:
                edits = step(f, scan)
                if edits:
                    apply_edits(f, edits)
                    scan = LineScan(f.lines)
            if not self.keep_cpu_duplicates:
                for blk in reversed(find_subroutines(f, r"_cpu$", scan)):
                    del f.lines[blk.start : blk.end + 1]
