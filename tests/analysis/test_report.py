"""Finding exporters: table, JSON, SARIF; severity plumbing."""

import json

from repro.analysis.findings import (
    Finding,
    RULES,
    Severity,
    count_by_severity,
    max_severity,
    sort_findings,
)
from repro.analysis.report import (
    findings_to_json,
    findings_to_sarif,
    render_findings,
)

F = [
    Finding("DC005", "z.f90", 9, "indirect write"),
    Finding("DC001", "a.f90", 3, "carried dependence"),
    Finding("UM201", "b.f90", 1, "uncovered array"),
]


class TestSeverity:
    def test_ordering_and_sarif_levels(self):
        assert Severity.ERROR > Severity.WARNING > Severity.NOTE
        assert Severity.ERROR.sarif_level == "error"
        assert Severity.NOTE.sarif_level == "note"

    def test_every_rule_has_severity_and_summary(self):
        for rid, rule in RULES.items():
            assert rule.severity in Severity
            assert rule.title and rule.summary, rid

    def test_sort_is_severity_then_rule(self):
        ranked = sort_findings(F)
        assert [f.rule_id for f in ranked] == ["DC001", "UM201", "DC005"]

    def test_counts_and_max(self):
        counts = count_by_severity(F)
        assert counts["ERROR"] == 1 and counts["WARNING"] == 1
        assert max_severity(F) is Severity.ERROR
        assert max_severity([]) is None


class TestRender:
    def test_empty(self):
        assert render_findings([]) == "no findings"

    def test_table_contains_location_and_summary_line(self):
        text = render_findings(F)
        assert "a.f90:3" in text
        assert "3 findings" in text and "1 error" in text


class TestJson:
    def test_roundtrips_and_counts(self):
        payload = json.loads(findings_to_json(F))
        assert [f["rule"] for f in payload["findings"]] == [
            "DC001", "UM201", "DC005",
        ]
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["severity"] == "error"


class TestSarif:
    def test_valid_minimal_log(self):
        log = json.loads(findings_to_sarif(F))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == {"DC001", "DC005", "UM201"}
        for result in run["results"]:
            idx = result["ruleIndex"]
            assert run["tool"]["driver"]["rules"][idx]["id"] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_line_zero_clamped_for_runtime_findings(self):
        log = json.loads(findings_to_sarif([Finding("RT320", "k", 0, "m")]))
        region = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        assert region["startLine"] == 1


def _seeded_with_fixes():
    from repro.analysis.fixes import attach_fixes
    from repro.analysis.fixtures import seeded_bug_codebase
    from repro.analysis.fortran_lint import analyze_codebase

    cb = seeded_bug_codebase()
    return cb, attach_fixes(cb, analyze_codebase(cb))


class TestSarifFixes:
    def test_fixes_property_has_sarif_2_1_0_shape(self):
        _cb, findings = _seeded_with_fixes()
        log = json.loads(findings_to_sarif(findings))
        results = log["runs"][0]["results"]
        with_fixes = [r for r in results if "fixes" in r]
        assert with_fixes, "seeded findings must export fixes"
        for r in with_fixes:
            for fix in r["fixes"]:
                assert fix["description"]["text"]
                for change in fix["artifactChanges"]:
                    assert change["artifactLocation"]["uri"].endswith(".f90")
                    for rep in change["replacements"]:
                        region = rep["deletedRegion"]
                        assert region["startLine"] >= 1
                        assert region["endLine"] >= 1
                        if "insertedContent" in rep:
                            assert rep["insertedContent"]["text"].endswith("\n")

    def test_insertions_use_zero_width_region(self):
        _cb, findings = _seeded_with_fixes()
        um = next(f for f in findings if f.rule_id == "UM201")
        log = json.loads(findings_to_sarif([um]))
        rep = log["runs"][0]["results"][0]["fixes"][0][
            "artifactChanges"][0]["replacements"][0]
        region = rep["deletedRegion"]
        assert region["startColumn"] == region["endColumn"] == 1
        assert region["startLine"] == region["endLine"]

    def test_roundtrip_reader_applies_to_clean_relint(self):
        """Satellite: export -> sarif_to_edits -> apply -> zero findings."""
        from repro.analysis.fixes import Fix
        from repro.analysis.fixtures import seeded_bug_codebase
        from repro.analysis.fortran_lint import analyze_codebase
        from tests.analysis.sarif_reader import sarif_to_edits
        from repro.analysis.rewriter import apply_fixes

        _cb, findings = _seeded_with_fixes()
        edits = sarif_to_edits(findings_to_sarif(findings))
        assert edits
        target = seeded_bug_codebase()
        report = apply_fixes(
            target,
            [Fix("sarif", "round-trip", (e,)) for e in edits],
        )
        assert report.clean, report.summary()
        assert analyze_codebase(target) == []

    def test_reader_returns_no_edits_for_fixless_log(self):
        from tests.analysis.sarif_reader import sarif_to_edits

        assert sarif_to_edits(findings_to_sarif(F)) == []


class TestDeterminism:
    """Satellite: byte-identical exports across independent runs."""

    def test_sarif_and_json_byte_stable(self):
        _cb1, f1 = _seeded_with_fixes()
        _cb2, f2 = _seeded_with_fixes()
        assert findings_to_sarif(f1) == findings_to_sarif(f2)
        assert findings_to_json(f1) == findings_to_json(f2)

    def test_sort_tiebreak_is_file_line_rule_message(self):
        scrambled = [
            Finding("UM203", "b.f90", 2, "later"),
            Finding("UM201", "b.f90", 2, "later"),
            Finding("UM201", "a.f90", 9, "x"),
            Finding("UM201", "b.f90", 1, "x"),
            Finding("UM201", "b.f90", 2, "earlier"),
        ]
        ranked = sort_findings(scrambled)
        assert [(f.file, f.line, f.rule_id, f.message) for f in ranked] == [
            ("a.f90", 9, "UM201", "x"),
            ("b.f90", 1, "UM201", "x"),
            ("b.f90", 2, "UM201", "earlier"),
            ("b.f90", 2, "UM201", "later"),
            ("b.f90", 2, "UM203", "later"),
        ]


class TestExplain:
    def test_known_rule_prints_catalog_entry(self):
        from repro.analysis.report import explain_rule

        text = explain_rule("DC002")
        assert text.startswith("DC002: undeclared reduction")
        assert "severity:  error" in text
        assert "repro lint --fix" in text
        assert "disable=DC002" in text

    def test_lowercase_accepted(self):
        from repro.analysis.report import explain_rule

        assert explain_rule("dc005").startswith("DC005:")

    def test_report_only_rule_says_so(self):
        from repro.analysis.report import explain_rule

        assert "report-only" in explain_rule("RT302")

    def test_unknown_rule_lists_known_ids(self):
        from repro.analysis.report import explain_rule

        text = explain_rule("XX999")
        assert "unknown rule" in text and "DC001" in text


class TestSharedDependenceCore:
    """Satellite (a): fusion and the kernel graph ride the same core."""

    def test_plan_fusion_barriers_match_core_verdicts(self):
        from repro.runtime.fusion import plan_fusion
        from repro.runtime.kernel import KernelSpec

        specs = [
            KernelSpec("k1", reads=("a",), writes=("b",)),
            KernelSpec("k2", reads=("c",), writes=("d",)),  # independent
            KernelSpec("k3", reads=("b",), writes=("e",)),  # RAW on k1
        ]
        groups = plan_fusion(specs, enabled=True)
        # k1+k2 fuse (independent); k3 opens a new group (RAW on k1's b)
        assert [len(g.kernels) for g in groups] == [2, 1]
        assert groups[1].kernels[0].name == "k3"
