"""The fact sheet sits below the rule families that read it.

``repro.analysis.facts`` holds every per-file scan and imports nothing of
``fortran_lint`` or ``interproc``; they import it. No import is deferred
into a function body to dodge a cycle.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro.analysis.facts as facts


def test_no_import_inside_a_function():
    tree = ast.parse(Path(facts.__file__).read_text())
    deferred = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []


def test_importing_the_sheet_leaves_the_rule_families_out():
    code = (
        "import sys, repro.analysis.facts\n"
        "print(sorted(m for m in ('repro.analysis.interproc', "
        "'repro.analysis.fortran_lint') if m in sys.modules))\n"
    )
    src = str(Path(facts.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"
