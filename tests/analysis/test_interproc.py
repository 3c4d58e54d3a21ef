"""Interprocedural purity/side-effect analysis: call graph, summaries,
the IP1xx rule family, and its wiring through fix/port/cost/SARIF.

The seeded corpus under ``tests/fixtures/interproc`` has one file per
rule; the acceptance contract is that each file trips *exactly* its
rule, ``--fix`` repairs the fixable ones to a re-lint with no fixes
left, and the porter refuses the impure-call file with a pointer at the
IP101 fix-it.
"""

from pathlib import Path

from repro.analysis.facts import parallel_spans
from repro.analysis.findings import sort_findings
from repro.analysis.fixes import attach_fixes
from repro.analysis.fortran_lint import analyze_codebase
from repro.analysis.interproc import (
    CacheStats,
    Purity,
    callgraph_dot,
    callgraph_json,
    clear_summary_cache,
    interproc_findings,
    region_call_blockers,
    summarize,
)
from repro.analysis.report import findings_to_sarif, render_findings
from repro.analysis.rewriter import apply_finding_fixes
from repro.fortran.frontend import load_external_tree
from repro.fortran.parser import LineScan, find_parallel_regions
from repro.fortran.source import Codebase, SourceFile
from tests.analysis.sarif_reader import sarif_to_edits, sarif_to_findings

CORPUS = Path(__file__).parent.parent / "fixtures" / "interproc"
GOLDEN = CORPUS / "golden"


def _load():
    return load_external_tree(CORPUS, name="interproc")


def _lint(cb, diagnostics=()):
    return attach_fixes(cb, sort_findings(
        [*analyze_codebase(cb), *diagnostics]
    ))


def _mini(name: str, lines: list[str]) -> Codebase:
    cb = Codebase(name="mini")
    cb.files.append(SourceFile(name=name, lines=lines))
    return cb


class TestCallGraph:
    def test_index_records_dummies_purity_and_extents(self):
        res = _load()
        out = summarize(res.codebase)
        s = out.summaries["smooth_point"]
        assert s.dummies == ("x", "y", "i", "n")
        assert not s.declared_pure
        assert s.end_line > s.line
        assert out.summaries["scale_point"].declared_pure

    def test_use_rename_resolves_to_real_definition(self):
        cb = _mini("renamed.f90", [
            "module impl",
            "  implicit none",
            "contains",
            "  subroutine real_worker (x)",
            "    real, intent(inout) :: x",
            "    x = x + 1.0",
            "  end subroutine real_worker",
            "end module impl",
            "subroutine driver (x)",
            "  use impl, only: worker => real_worker",
            "  implicit none",
            "  real, intent(inout) :: x",
            "  call worker (x)",
            "end subroutine driver",
        ])
        out = summarize(cb)
        assert out.summary_for_call("worker", "renamed.f90") is not None
        assert (
            out.summary_for_call("worker", "renamed.f90").name
            == "real_worker"
        )
        # the caller's summary folds the renamed callee in
        assert "x" in out.summaries["driver"].dummy_writes

    def test_contains_nested_routine_has_parent(self):
        cb = _mini("nested.f90", [
            "subroutine outer (x)",
            "  real, intent(inout) :: x",
            "  call inner",
            "contains",
            "  subroutine inner",
            "    x = x + 1.0",
            "  end subroutine inner",
            "end subroutine outer",
        ])
        out = summarize(cb)
        assert out.index.routines["inner"].parent == "outer"
        # the child's body lines are not double-scanned as the parent's
        assert "inner" in {c.callee for c in out.summaries["outer"].calls}


class TestSummaries:
    def test_purity_classes_of_the_callee_zoo(self):
        out = summarize(_load().codebase)
        assert out.summaries["smooth_point"].purity is Purity.PURE
        assert out.summaries["saxpy_line"].purity is Purity.PURE
        assert out.summaries["log_point"].purity is Purity.IMPURE
        assert out.summaries["bump_accum"].purity is Purity.IMPURE
        assert out.summaries["bump_accum"].globals_written == (
            "mod_state::accum",
        )

    def test_effects_propagate_transitively_to_callers(self):
        out = summarize(_load().codebase)
        caller = out.summaries["accumulate_flux"]
        assert caller.purity is Purity.IMPURE
        assert "mod_state::accum" in caller.globals_written
        # evidence points at the original write site in the callee
        assert any(e.file == "src/helpers.f90" for e in caller.effects)

    def test_io_and_stop_are_effects(self):
        cb = _mini("fx.f90", [
            "subroutine noisy (x)",
            "  real, intent(in) :: x",
            "  if (x < 0.0) stop",
            "  write (*, *) x",
            "end subroutine noisy",
        ])
        out = summarize(cb)
        kinds = {e.kind for e in out.summaries["noisy"].effects}
        assert kinds == {"stop", "io"}

    def test_unknown_write_never_proves_pure(self):
        cb = _mini("unk.f90", [
            "subroutine sloppy (n)",
            "  integer, intent(in) :: n",
            "  undeclared_thing = n",
            "end subroutine sloppy",
        ])
        out = summarize(cb)
        assert out.summaries["sloppy"].purity is Purity.UNKNOWN

    def test_unresolved_call_degrades_to_unknown(self):
        cb = _mini("ext.f90", [
            "subroutine wraps (x)",
            "  real, intent(inout) :: x",
            "  call some_library_routine (x)",
            "end subroutine wraps",
        ])
        out = summarize(cb)
        s = out.summaries["wraps"]
        assert s.purity is Purity.UNKNOWN
        assert s.unresolved_calls == ("some_library_routine",)

    def test_mutual_recursion_reaches_a_fixed_point(self):
        cb = _mini("rec.f90", [
            "module rec",
            "  implicit none",
            "  real :: tally",
            "contains",
            "  subroutine ping (n)",
            "    integer, intent(in) :: n",
            "    if (n > 0) call pong (n)",
            "  end subroutine ping",
            "  subroutine pong (n)",
            "    integer, intent(in) :: n",
            "    tally = tally + 1.0",
            "    call ping (n)",
            "  end subroutine pong",
            "end module rec",
        ])
        out = summarize(cb)
        # the module-var write in pong reaches ping through the cycle
        assert out.summaries["ping"].purity is Purity.IMPURE
        assert "rec::tally" in out.summaries["ping"].globals_written
        assert "rec::tally" in out.summaries["pong"].globals_written

    def test_parameter_in_a_name_or_comment_declares_a_variable(self):
        """Only a ``parameter`` attribute makes a named constant; one in a
        variable's name or a trailing comment does not hide the variable."""
        cb = _mini("knobs.f90", [
            "module knobs",
            "  real :: nparameters",
            "  real :: gain  ! parameter of the fit",
            "  real, parameter :: pi = 3.14",
            "  REAL(kind=8),PARAMETER,dimension(2)::tau = 6.28",
            "contains",
            "  subroutine bump()",
            "    nparameters = nparameters + 1.0",
            "    gain = 2.0",
            "  end subroutine bump",
            "end module knobs",
        ])
        out = summarize(cb)
        assert out.facts[0].module_vars == (
            ("knobs", frozenset({"nparameters", "gain"})),
        )
        s = out.summaries["bump"]
        assert s.purity is Purity.IMPURE
        assert s.globals_written == ("knobs::gain", "knobs::nparameters")

    def test_intent_inference_from_reads_and_writes(self):
        out = summarize(_load().codebase)
        s = out.summaries["scale_point"]
        assert s.inferred_intent_of("x") == "inout"
        assert s.inferred_intent_of("s") == "in"
        assert s.inferred_intent_of("n") == "in"


class TestSummaryCache:
    def test_second_pass_is_all_hits(self):
        clear_summary_cache()
        cb = _load().codebase
        first = summarize(cb)
        assert first.stats.misses == len(first.summaries)
        second = summarize(cb)
        assert second.stats == CacheStats(
            hits=len(first.summaries), misses=0
        )
        assert second.summaries == first.summaries

    def test_callee_edit_invalidates_callee_and_callers_only(self):
        clear_summary_cache()
        cb = _load().codebase
        summarize(cb)
        helpers = cb.file("src/helpers.f90")
        i = next(
            n for n, ln in enumerate(helpers.lines)
            if "y(i) = 0.5 * x(i)" in ln
        )
        helpers.lines[i] = "    y(i) = 0.25 * x(i)"
        again = summarize(cb)
        # invalidation is per-routine, not per-file: only smooth_point
        # (its body hash changed) and apply_smooth (its callee's key
        # changed) recompute; the other helpers and the scaling module
        # all hit the cache
        assert again.stats == CacheStats(
            hits=len(again.summaries) - 2, misses=2
        )


class TestSeededRules:
    """Each seeded file trips exactly its intended rule."""

    def test_golden_lint_output(self):
        res = _load()
        expected = (GOLDEN / "lint.txt").read_text()
        assert render_findings(_lint(res.codebase, res.diagnostics)) + "\n" == expected

    def test_exactly_one_rule_per_seeded_file(self):
        res = _load()
        by_file = {}
        for f in _lint(res.codebase, res.diagnostics):
            by_file.setdefault(f.file, set()).add(f.rule_id)
        assert by_file == {
            "src/ip101_pure_call.f90": {"IP101"},
            "src/ip101_dc_loop.f90": {"IP101"},
            "src/ip102_module_write.f90": {"IP102"},
            "src/ip103_alias.f90": {"IP103"},
            "src/ip104_intent.f90": {"IP104"},
        }

    def test_ip101_fix_is_cross_file_pure_attribute(self):
        res = _load()
        f = next(
            x for x in _lint(res.codebase, res.diagnostics)
            if x.file == "src/ip101_pure_call.f90"
        )
        assert f.fix is not None
        (edit,) = f.fix.edits
        assert edit.file == "src/helpers.f90"
        assert edit.replacement[0].lstrip().startswith("pure subroutine")
        assert any(r.file == "src/helpers.f90" for r in f.related)

    def test_impure_flavor_has_no_fix(self):
        res = _load()
        f = next(
            x for x in _lint(res.codebase, res.diagnostics)
            if x.file == "src/ip101_dc_loop.f90"
        )
        assert f.fix is None
        assert "provably impure" in f.message

    def test_fix_round_trip_leaves_only_unfixable_findings(self):
        res = _load()
        cb = res.codebase
        rep = apply_finding_fixes(cb, _lint(cb, res.diagnostics))
        assert rep.clean, rep.summary()
        after = _lint(cb, res.diagnostics)
        assert {f.rule_id for f in after} == {"IP101", "IP102", "IP103"}
        assert all(f.fix is None for f in after)
        # idempotent: a second apply changes nothing
        snap = [list(f.lines) for f in cb.files]
        apply_finding_fixes(cb, after)
        assert [list(f.lines) for f in cb.files] == snap


class TestPortRefusal:
    def test_port_refuses_impure_call_file_naming_ip101(self):
        from repro.analysis.port import PortTarget, port_tree_incremental

        res = _load()
        r = port_tree_incremental(res.codebase, PortTarget.DC)
        by_name = {s.name: s for s in r.statuses}
        refused = by_name["src/ip101_pure_call.f90"]
        assert refused.status == "refused"
        assert "IP101" in refused.reason
        assert "repro lint --fix" in refused.reason
        assert by_name["src/ip102_module_write.f90"].status == "refused"
        assert "IP102" in by_name["src/ip102_module_write.f90"].reason
        # refused files are byte-identical in the output tree
        src = res.codebase.file("src/ip101_pure_call.f90")
        out = r.codebase.file("src/ip101_pure_call.f90")
        assert src.lines == out.lines

    def test_fix_then_port_converts_the_pure_call_file(self):
        from repro.analysis.port import PortTarget, port_tree_incremental

        res = _load()
        cb = res.codebase
        apply_finding_fixes(cb, _lint(cb, res.diagnostics))
        r = port_tree_incremental(cb, PortTarget.DC)
        by_name = {s.name: s for s in r.statuses}
        assert by_name["src/ip101_pure_call.f90"].status == "ported"
        assert by_name["src/ip102_module_write.f90"].status == "refused"


class TestCostPricing:
    def test_call_blocked_regions_land_in_unsafe_bucket(self):
        from repro.analysis.cost import estimate_cost
        from repro.analysis.fortran_lint import PortSafety

        res = _load()
        report = estimate_cost(res.codebase, census=res.census)
        assert report.call_blocked_regions == 2
        assert report.buckets[PortSafety.UNSAFE].regions == 2
        # the declared-pure callee's region is NOT blocked
        sites = report.buckets[PortSafety.UNSAFE].sites
        assert all("ip104" not in f for f, _ln in sites)
        assert "interprocedural: " in report.render()

    def test_region_call_blockers_api(self):
        from repro.fortran.parser import find_parallel_regions

        res = _load()
        out = summarize(res.codebase)
        file = res.codebase.file("src/ip102_module_write.f90")
        (region,) = find_parallel_regions(file)
        (blocker,) = region_call_blockers(file, region, out)
        assert blocker.rule == "IP102"
        assert blocker.callee == "bump_accum"
        assert not blocker.fixable


#: A module-variable writer and an intent(inout) worker, called behind a
#: one-line ``if`` guard from an OpenACC region, a DC loop and plain code.
GUARDED = [
    "module m",
    "  implicit none",
    "  real :: total",
    "contains",
    "  subroutine bump (x)",
    "    real, intent(in) :: x",
    "    total = total + x",
    "  end subroutine bump",
    "  subroutine twice (p, q)",
    "    real, intent(inout) :: p",
    "    real, intent(in) :: q",
    "    p = p + q",
    "  end subroutine twice",
    "end module m",
    "subroutine drive (a, n)",
    "  use m",
    "  implicit none",
    "  integer, intent(in) :: n",
    "  real, dimension(n), intent(inout) :: a",
    "  integer :: i",
    "!$acc parallel loop",
    "  do i = 1, n",
    "    if (a(i) > 0.0) call bump(a(i))",
    "  enddo",
    "  do concurrent (i = 1:n)",
    "    if (a(i) > 0.0) call bump(a(i))",
    "  enddo",
    "  if (n > 0) call twice(a(1), a(1))",
    "end subroutine drive",
]


class TestGuardedCalls:
    """A one-line ``if (cond) call`` is a call site to every IP rule and
    to the porter, as the unguarded call is."""

    def test_ip102_in_a_region_and_a_dc_loop_and_ip103_outside(self):
        got = [(f.rule_id, f.line) for f in analyze_codebase(_mini("g.f90", GUARDED))]
        assert got == [("IP102", 23), ("IP102", 26), ("IP103", 28)]

    def test_region_call_blockers_see_the_guarded_call(self):
        from repro.fortran.parser import find_parallel_regions

        cb = _mini("g.f90", GUARDED)
        (region,) = find_parallel_regions(cb.files[0])
        (blocker,) = region_call_blockers(cb.files[0], region, summarize(cb))
        assert (blocker.callee, blocker.line, blocker.rule) == ("bump", 22, "IP102")

    def test_the_porter_refuses_the_region(self):
        from repro.analysis.port import PortTarget, port_tree_incremental

        cb = _mini("g.f90", GUARDED)
        (status,) = port_tree_incremental(cb, PortTarget.DC).statuses
        assert status.status == "refused"
        assert "call to bump at line 23" in status.reason
        assert "IP102" in status.reason


class TestParallelSpans:
    def test_dc_loop_inside_region_not_double_counted(self):
        cb = _mini("spans.f90", [
            "subroutine s (n)",
            "  integer, intent(in) :: n",
            "  integer :: i",
            "!$acc parallel",
            "  do concurrent (i = 1:n)",
            "  enddo",
            "!$acc end parallel",
            "  do concurrent (i = 1:n)",
            "  enddo",
            "end subroutine s",
        ])
        f = cb.files[0]
        spans = parallel_spans(LineScan(f.lines), find_parallel_regions(f))
        assert len(spans) == 2
        assert spans[0][2].startswith("the parallel region")
        assert spans[1][2].startswith("the do concurrent loop")

    def test_unterminated_dc_loop_spans_its_header_line(self):
        cb = _mini("open.f90", [
            "subroutine s (n)",
            "  integer, intent(in) :: n",
            "  integer :: i",
            "  do concurrent (i = 1:n)",
            "    do j = 1, n",
            "    enddo",
            "end subroutine s",
        ])
        f = cb.files[0]
        assert parallel_spans(LineScan(f.lines), find_parallel_regions(f)) == [(3, 3, "the do concurrent loop at line 4")]


class TestSarifRelated:
    def test_golden_sarif(self):
        res = _load()
        got = findings_to_sarif(_lint(res.codebase, res.diagnostics)) + "\n"
        assert got == (GOLDEN / "lint.sarif").read_text()

    def test_related_locations_round_trip(self):
        res = _load()
        findings = _lint(res.codebase, res.diagnostics)
        back = sarif_to_findings(findings_to_sarif(findings))
        assert len(back) == len(findings)
        for orig, rt in zip(sort_findings(findings), back):
            assert rt.rule_id == orig.rule_id
            assert rt.related == orig.related

    def test_dc006_related_points_at_sibling_nest(self):
        cb = _mini("dc006.f90", [
            "subroutine s (a, b, n)",
            "  integer, intent(in) :: n",
            "  real, dimension(n), intent(inout) :: a, b",
            "  integer :: i",
            "!$acc parallel",
            "!$acc loop",
            "  do i = 1, n",
            "    a(i) = b(i)",
            "  enddo",
            "!$acc loop",
            "  do i = 1, n",
            "    b(i) = a(i)",
            "  enddo",
            "!$acc end parallel",
            "end subroutine s",
        ])
        findings = [
            f for f in analyze_codebase(cb) if f.rule_id == "DC006"
        ]
        assert findings
        assert findings[0].related
        assert findings[0].related[0].line < findings[0].line

    def test_sarif_edits_recover_the_cross_file_fix(self):
        res = _load()
        edits = sarif_to_edits(
            findings_to_sarif(_lint(res.codebase, res.diagnostics))
        )
        assert any(e.file == "src/helpers.f90" for e in edits)


class TestCallGraphExport:
    def test_json_export_is_byte_stable_and_complete(self):
        res = _load()
        a = callgraph_json(summarize(res.codebase))
        b = callgraph_json(summarize(res.codebase))
        assert a == b
        import json

        doc = json.loads(a)
        assert doc["schema"] == "repro-callgraph/1"
        assert doc["routines"]["bump_accum"]["purity"] == "impure"
        assert "bump_accum" in doc["routines"]["accumulate_flux"]["calls"]

    def test_dot_export_colors_by_purity(self):
        res = _load()
        dot = callgraph_dot(summarize(res.codebase))
        assert dot == callgraph_dot(summarize(res.codebase))
        assert '"accumulate_flux" -> "bump_accum";' in dot
        assert 'label="log_point\\nimpure"' in dot

    def test_cli_call_graph_flag(self, capsys):
        from repro.cli import main

        assert main(["lint", str(CORPUS), "--call-graph", "json"]) == 0
        out = capsys.readouterr().out
        assert '"schema": "repro-callgraph/1"' in out
