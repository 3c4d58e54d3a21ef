"""Mini-Fortran source model and the OpenACC->DC porting toolchain.

Implements the source-level side of the paper: a synthetic MAS-like
codebase generator whose OpenACC directive census matches Table II, a
line-level lexer + structural parser for the loop/directive subset the
transformations need, and the five transformation passes that produce
Codes 2-6 from Code 1 by *actually rewriting source text* (Table I's
line counts are outputs of the pipeline, not constants).
"""

from repro.fortran.directives import AccDirective, DirectiveKind, parse_directive
from repro.fortran.source import SourceFile, Codebase
from repro.fortran.lexer import LineKind, classify_line
from repro.fortran.metrics import CodeMetrics, directive_census, measure
from repro.fortran.codebase import generate_mas_codebase, strip_to_cpu
from repro.fortran.pipeline import build_version
from repro.fortran.tree_io import load_tree, save_tree

__all__ = [
    "AccDirective",
    "DirectiveKind",
    "parse_directive",
    "SourceFile",
    "Codebase",
    "LineKind",
    "classify_line",
    "CodeMetrics",
    "directive_census",
    "measure",
    "generate_mas_codebase",
    "strip_to_cpu",
    "build_version",
    "load_tree",
    "save_tree",
]
