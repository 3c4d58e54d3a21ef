"""Tolerant real-Fortran front end.

Lowers arbitrary external OpenACC Fortran trees into the line-based IR
the analyzer, fix-it engine, rewriter and porter already understand:

1. :mod:`normalize` -- line-count-preserving normalization: CRLF and
   trailing whitespace stripped, ``&`` continuations joined onto their
   first physical line (continuation lines become filler comments),
   directive continuations canonicalized to ``!$acc`` / ``!$acc&``
   pairs, sentinels lowercased.
2. :mod:`lower` -- recovery: every construct the canonical parser cannot
   represent degrades to opaque lines with an ``FE001`` diagnostic; a
   per-file parse census makes coverage observable and the
   ``parse_errors_total`` metric counts degradations.
3. :mod:`resolve` -- interprocedural symbol index: modules, ``use``
   edges, subroutines/functions and their ``!$acc routine`` status.

The result is a plain :class:`repro.fortran.source.Codebase` -- physical
line numbers (and therefore finding lines, census totals and fix
anchors) are identical to the on-disk sources.
"""

from repro.fortran.frontend.lower import (
    FrontendResult,
    ParseCensus,
    ParseFileCensus,
    load_external_tree,
    lower_tree,
    restore_opaque,
)
from repro.fortran.frontend.normalize import normalize_file, normalize_tree
from repro.fortran.frontend.resolve import ModuleIndex, RoutineSym

__all__ = [
    "FrontendResult",
    "ModuleIndex",
    "ParseCensus",
    "ParseFileCensus",
    "RoutineSym",
    "load_external_tree",
    "lower_tree",
    "normalize_file",
    "normalize_tree",
    "restore_opaque",
]
