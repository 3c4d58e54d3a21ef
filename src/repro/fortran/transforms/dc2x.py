"""Code 4 (AD2XU): Fortran 202X preview features for the remaining loops.

* scalar reductions -> ``do concurrent ... reduce(+:x)`` (breaks F2018
  portability; nvfortran-only until 202X lands, SIV-D);
* array reductions -> DC with the ``!$acc atomic`` directives retained
  inside the body (Listing 4);
* non-reduction atomic loops -> DC likewise;
* ``wait`` directives go (nothing is async any more);
* the derived-type enter/exit data and the now-dead non-managed legacy
  transfer paths go (all loops touching the types are DC now).
"""

from __future__ import annotations

import re

from repro.fortran.directives import DirectiveKind, is_directive_line, parse_directive
from repro.fortran.parser import LineScan, apply_edits, find_directive_lines
from repro.fortran.source import SourceFile
from repro.fortran.transforms.base import dc_header

_REDUCTION_RE = re.compile(r"reduction\(\s*([^:]+):\s*([^)]+)\)", re.I)


def reduce_clause_of(f: SourceFile, region) -> str:
    """The ``reduce(op:var)`` clause matching the region's ``reduction``."""
    for i in region.directive_lines:
        m = _REDUCTION_RE.search(f.lines[i])
        if m:
            return f"reduce({m.group(1).strip()}:{m.group(2).strip()})"
    return ""


def convert_region_dc2x(f: SourceFile, region, *, clause: str = "") -> list[str]:
    """Replacement text: one DC-202X loop for a remaining OpenACC region.

    Atomics survive inside the DC body (Listing 4); ``loop seq`` (and any
    other loop directive) is dropped -- the inner loop simply stays a
    sequential ``do`` inside the DC body.
    """
    nest = region.loops[0]
    first, last = nest.body_range
    body: list[str] = []
    for i in range(first, last + 1):
        ln = f.lines[i]
        if is_directive_line(ln):
            d = parse_directive(ln)
            if d.kind is DirectiveKind.ATOMIC:
                body.append(ln)
            continue
        body.append(ln)
    return [dc_header(nest, clause=clause), *body, "      enddo"]


def async_and_dtype_data_edits(
    f: SourceFile, scan: LineScan | None = None
) -> list[tuple[int, int, list[str]]]:
    """Deletion edits for ``wait`` lines and derived-type enter/exit data.

    Mechanical cleanup of the 202X conversion stage, whoever decides its
    regions: nothing is async once all loops are DC, and the
    derived-type data lines go with the loops that touched the types.
    """
    return [
        (d.index, max(d.all_lines), [])
        for d in find_directive_lines(f, DirectiveKind.WAIT, DirectiveKind.DATA, scan=scan)
        if d.directive.kind is DirectiveKind.WAIT or "%" in d.directive.payload
    ]


def drop_legacy_paths(f: SourceFile) -> None:
    """Remove the dead ``if (.not. gpu_managed)`` transfer branches."""
    lines = f.lines
    edits: list[tuple[int, int, list[str]]] = []
    end = -1
    for i in LineScan(lines).rows("gpu_managed"):
        if i <= end or lines[i].strip() != "if (.not. gpu_managed) then":
            continue
        end = i
        while lines[end].strip() != "endif":
            end += 1
        edits.append((i, end, []))
    apply_edits(f, edits)
