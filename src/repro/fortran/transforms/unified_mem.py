"""Code 3 (ADU): drop manual data management in favour of unified memory.

Removes enter/exit/update/host_data directives (and their continuation
lines), plus the buffer load/unload glue those paths needed. Two data
directives survive (SIV-C): ``declare`` (plus the ``update`` of the
declared variable, used inside device functions) and the derived-type
``enter``/``exit data`` lines (the type *structure* is static data UM does
not page, and the reduction loops still use ``default(present)``).
"""

from __future__ import annotations

import re

from repro.fortran.directives import DirectiveKind
from repro.fortran.parser import DirectiveLine, LineScan, find_directive_lines
from repro.fortran.source import Codebase
from repro.fortran.transforms.base import TransformPass

_DECLARED_RE = re.compile(r"declare\s+\w+\(([^)]+)\)", re.I)
_GLUE_RE = re.compile(r"call\s+(un)?load_gpu_buffer\b", re.I)


def glue_rows(scan: LineScan) -> list[int]:
    """Indices of the lines that call the buffer load/unload glue."""
    return [
        i for i in scan.rows("load_gpu_buffer", fold=True)
        if _GLUE_RE.search(scan.lines[i])
    ]


class UnifiedMemPass(TransformPass):
    """Remove (almost all) OpenACC data directives for UM builds."""

    def _declared_names(self, data: list[list[DirectiveLine]]) -> set[str]:
        names: set[str] = set()
        for found in data:
            for d in found:
                m = _DECLARED_RE.search(d.directive.payload)
                if d.directive.payload.lower().startswith("declare") and m:
                    names.update(n.strip() for n in m.group(1).split(","))
        return names

    def _keep(self, payload: str, declared: set[str]) -> bool:
        low = payload.lower()
        if low.startswith("declare"):
            return True
        if "%" in payload:
            return True  # derived-type members: UM cannot page the struct
        if low.startswith("update") and any(n in payload for n in declared):
            return True  # feeds a declare'd table used in device code
        return False

    def apply(self, cb: Codebase) -> None:
        # one scan of each unedited file finds its data directives and glue
        # calls; the declared names need every file's before any is stripped
        data, glue = [], []
        for f in cb.files:
            scan = LineScan(f.lines)
            data.append(find_directive_lines(f, DirectiveKind.DATA, scan=scan))
            glue.append(glue_rows(scan))
        declared = self._declared_names(data)
        for f, found, drop in zip(cb.files, data, glue):
            for d in found:
                if not self._keep(d.directive.payload, declared):
                    drop.extend(d.all_lines)
            for i in sorted(set(drop), reverse=True):
                del f.lines[i]
