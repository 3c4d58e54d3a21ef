"""The per-file fact sheet cache (``repro.analysis.facts``) is invisible.

A warm lint, a lint after an edit and a lint after ``clear_summary_cache()``
print the same findings table, SARIF and call-graph JSON, byte for byte;
a warm pass computes no sheet, an edit recomputes exactly the edited
file's, and nothing the cache holds reaches a source tree or a mutable
container.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import gc
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import facts, fixtures, interproc
from repro.analysis.findings import sort_findings
from repro.analysis.fixes import attach_fixes
from repro.analysis.fortran_lint import LoopUnit, analyze_codebase
from repro.analysis.interproc import callgraph_json, clear_summary_cache, summarize
from repro.analysis.report import findings_to_sarif, render_findings
from repro.fortran.codebase import MAS_BUDGET, generate_mas_codebase
from repro.fortran.frontend import load_external_tree
from repro.fortran.parser import LoopNest, ParallelRegion
from repro.fortran.source import Codebase, SourceFile
from repro.obs.telemetry import Telemetry, activate, deactivate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: A 3,000-line generated tree with every construct kind of the MAS budget.
TINY = dataclasses.replace(
    MAS_BUDGET,
    plain3=40, caller3=5, plain2=10, double_regions=15, double_with_cont=3,
    scalar_reductions=6, array_reductions=4, atomic_other=2,
    enter_data=30, exit_data=30, update_data=12, enter_data_cont=17,
    dup_cpu_routines=8, legacy_lines_total=52, gpu_support_lines=100,
    total_lines_code1=3000,
)


def _front_end(name: str):
    def load():
        res = load_external_tree(FIXTURES / name, name=name)
        return res.codebase, tuple(res.diagnostics)
    return load


CORPORA = {
    "seeded": lambda: (fixtures.seeded_bug_codebase(), ()),
    "interproc": _front_end("interproc"),
    "external": _front_end("external"),
    "generated": lambda: (generate_mas_codebase(TINY), ()),
}


def outputs(cb: Codebase, diagnostics=()) -> tuple[str, str, str]:
    """What ``repro lint`` prints: the table, the SARIF, the call graph."""
    found = attach_fixes(cb, sort_findings([*analyze_codebase(cb), *diagnostics]))
    return render_findings(found), findings_to_sarif(found), callgraph_json(summarize(cb))


def outcome(cb: Codebase, diagnostics=()):
    """``outputs``, or the error the lint raised."""
    try:
        return outputs(cb, diagnostics)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def sheet_counts(fn) -> dict[str, int]:
    """``lint_file_facts_total`` by result, over one call of ``fn``."""
    tel = Telemetry(None)
    activate(tel)
    try:
        fn()
    finally:
        deactivate(tel)
    family = tel.metrics.get("lint_file_facts_total")
    if family is None:
        return {}
    return {key[0]: int(child.value) for key, child in family.children.items()}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_a_warm_lint_prints_what_a_cold_one_does(corpus):
    cb, diagnostics = CORPORA[corpus]()
    first = outputs(cb, diagnostics)  # the front end's sheets, where it ran
    clear_summary_cache()
    cold = outputs(cb, diagnostics)
    warm = outputs(cb, diagnostics)
    assert first == cold
    assert warm == cold


class TestSheetCounts:
    def test_cold_computes_each_sheet_once_and_warm_computes_none(self):
        cb = fixtures.seeded_bug_codebase()
        n = len(cb.files)
        clear_summary_cache()
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"computed": n}
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"cached": n}
        assert sheet_counts(lambda: summarize(cb)) == {"cached": n}

    def test_an_edit_recomputes_only_the_edited_file(self):
        cb, _diagnostics = CORPORA["interproc"]()
        n = len(cb.files)
        analyze_codebase(cb)
        helpers = cb.file("src/helpers.f90")
        i = helpers.lines.index("    y(i) = 0.5 * x(i)")
        helpers.lines[i] = "    y(i) = 0.25 * x(i)"
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"computed": 1, "cached": n - 1}

    def test_the_summary_pass_alone_runs_no_per_file_rule(self):
        """``summarize`` on a cold cache computes only the summary inputs;
        the next lint completes each sheet once, and then reuses it."""
        cb = fixtures.seeded_bug_codebase()
        n = len(cb.files)
        clear_summary_cache()
        assert sheet_counts(lambda: summarize(cb)) == {"computed": n}
        assert all(sheet.lint is None for sheet in facts._SHEETS.values())
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"computed": n}
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"cached": n}

    def test_ip_findings_from_a_summary_pass_alone(self):
        """``interproc_findings`` on a result whose sheets only the summary
        pass read finds what the lint does."""
        cb, _diagnostics = CORPORA["interproc"]()
        clear_summary_cache()
        alone = sort_findings(interproc.interproc_findings(cb, summarize(cb)))
        clear_summary_cache()
        linted = [f for f in analyze_codebase(cb) if f.rule_id.startswith("IP")]
        assert alone and render_findings(alone) == render_findings(linted)

    def test_clearing_the_summary_cache_recomputes_every_sheet(self):
        cb, _diagnostics = CORPORA["interproc"]()
        analyze_codebase(cb)
        clear_summary_cache()
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"computed": len(cb.files)}

    def test_the_first_lint_reuses_the_front_ends_sheets(self):
        clear_summary_cache()
        cb, _diagnostics = CORPORA["external"]()
        assert sheet_counts(lambda: analyze_codebase(cb)) == {"cached": len(cb.files)}

    def test_a_file_whose_regions_do_not_parse(self):
        """The sheet keeps the error: the lint raises it cold and warm, as
        it always did, while the summary pass still reads the file."""
        cb = Codebase("bad", [SourceFile("bad.f90", [
            "subroutine s (a)", "  real :: a(3)", "!$acc parallel",
            "  a(1) = 1.0", "end subroutine s",
        ])])
        clear_summary_cache()
        for _ in range(2):
            with pytest.raises(ValueError, match="unterminated parallel region in bad.f90 at 2"):
                analyze_codebase(cb)
            assert sorted(summarize(cb).summaries) == ["s"]

    def test_nothing_is_counted_outside_a_telemetry_session(self):
        cb = fixtures.seeded_bug_codebase()
        clear_summary_cache()
        analyze_codebase(cb)
        assert sheet_counts(lambda: None) == {}


# -- hypothesis: one edited line relints as it lints cold ----------------------

_HEADER = re.compile(r"^\s*(pure\s+)?subroutine\s", re.I)
_ASSIGNMENT = re.compile(r"^\s*\w+(\([^!]*\))?\s*=[^=!]*$")


def _toggle_pure(line: str) -> str:
    m = _HEADER.match(line)
    head = line[: len(line) - len(line.lstrip())]
    if m.group(1):
        return head + line.lstrip()[len(m.group(1)):]
    return f"{head}pure {line.lstrip()}"


EDITS = {
    "append a comment": (lambda ln: True, lambda ln: f"{ln}  ! edited"),
    "toggle pure": (lambda ln: _HEADER.match(ln) is not None, _toggle_pure),
    "change an assignment": (
        lambda ln: _ASSIGNMENT.match(ln) is not None, lambda ln: f"{ln} + 1.0"
    ),
    "add a guarded call": (
        lambda ln: _ASSIGNMENT.match(ln) is not None,
        lambda ln: "      if (n > 0) call bump_accum(x(1))",
    ),
}

_loaded = functools.cache(lambda name: CORPORA[name]())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_edited_line_relints_as_a_cold_lint_does(data):
    name = data.draw(st.sampled_from(["interproc", "seeded"]), label="corpus")
    base, diagnostics = _loaded(name)
    cb = base.copy()
    clear_summary_cache()
    outcome(cb, diagnostics)  # every sheet computed: the next lint is warm
    file = data.draw(st.sampled_from(cb.files), label="file")
    kind = data.draw(st.sampled_from(sorted(EDITS)), label="edit")
    applies, edit = EDITS[kind]
    candidates = [i for i, ln in enumerate(file.lines) if applies(ln)]
    assume(candidates)
    i = data.draw(st.sampled_from(candidates), label="line")
    file.lines[i] = edit(file.lines[i])
    relinted = []
    counts = sheet_counts(lambda: relinted.append(outcome(cb, diagnostics)))
    (warm,) = relinted
    if isinstance(warm[0], str):  # the lint ran to the end
        assert counts.get("computed") == 1
    clear_summary_cache()
    assert warm == outcome(cb, diagnostics)


# -- nothing cached reaches what it was derived from ---------------------------


def test_the_cache_holds_only_values():
    """No sheet or summary reaches a source file, codebase, region, loop
    unit or any list, dict or set a caller could change."""
    clear_summary_cache()
    for load in CORPORA.values():
        cb, _diagnostics = load()
        analyze_codebase(cb)
    assert facts._SHEETS and interproc._SUMMARY_CACHE
    barred = (SourceFile, Codebase, ParallelRegion, LoopNest, LoopUnit, list, dict, set)
    seen: set[int] = set()
    stack: list = [*facts._SHEETS.values(), *interproc._SUMMARY_CACHE.values()]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, enum.Enum)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, barred), type(obj)
        stack.extend(gc.get_referents(obj))
