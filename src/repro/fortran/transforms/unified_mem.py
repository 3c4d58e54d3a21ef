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
from repro.fortran.parser import apply_edits, find_directive_lines
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms.base import TransformPass

_DECLARED_RE = re.compile(r"declare\s+\w+\(([^)]+)\)", re.I)
_GLUE_RE = re.compile(r"call\s+(un)?load_gpu_buffer\b", re.I)


class UnifiedMemPass(TransformPass):
    """Remove (almost all) OpenACC data directives for UM builds."""

    def _declared_names(self, cb: Codebase) -> set[str]:
        names: set[str] = set()
        for f in cb.files:
            for d in find_directive_lines(f, DirectiveKind.DATA):
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

    def _strip_file(self, f: SourceFile, declared: set[str]) -> None:
        edits = []
        for d in find_directive_lines(f, DirectiveKind.DATA):
            if self._keep(d.directive.payload, declared):
                continue
            lo = min(d.all_lines)
            hi = max(d.all_lines)
            edits.append((lo, hi, []))
        # drop overlapping edits defensively (continuations are contiguous)
        apply_edits(f, edits)
        f.lines = [ln for ln in f.lines if not _GLUE_RE.search(ln)]

    def apply(self, cb: Codebase) -> None:
        declared = self._declared_names(cb)
        for f in cb.files:
            self._strip_file(f, declared)
