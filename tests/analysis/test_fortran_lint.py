"""Fortran front end: seeded fixtures, clean corpora, transform agreement.

The two load-bearing gates of the analyzer:

* every seeded-bug fixture produces *exactly* its expected rule IDs
  (both directions: nothing missed, nothing extra), and the clean twin
  corpus produces literally zero findings;
* the six transform outputs lint clean -- exactly zero findings for
  Codes 0-4, and nothing above NOTE for the pure-DC Codes 5/6 (whose
  atomic drop leaves bare indirect writes, reported as DC005 notes by
  design) -- and the analyzer's independent port-safety verdict agrees
  with the SIV ``RegionKind`` taxonomy the transforms act on, region by
  region.
"""

import pytest

from repro.analysis.findings import Severity
from repro.analysis.fixtures import (
    EXPECTED_SEEDED,
    clean_codebase,
    seeded_bug_codebase,
)
from repro.analysis.fortran_lint import (
    EXPECTED_SAFETY,
    LintConfig,
    analyze_codebase,
    region_port_safety,
)
from repro.codes import CodeVersion


def _by_file(findings):
    out = {}
    for f in findings:
        out.setdefault(f.file, []).append(f.rule_id)
    return out


class TestSeededFixtures:
    def test_every_expected_rule_found_nothing_extra(self):
        found = _by_file(analyze_codebase(seeded_bug_codebase()))
        for fname, expected in EXPECTED_SEEDED.items():
            assert sorted(found.get(fname, [])) == sorted(expected), fname
        assert set(found) == set(EXPECTED_SEEDED)  # no findings elsewhere

    def test_clean_corpus_has_zero_findings(self):
        assert analyze_codebase(clean_codebase()) == []

    def test_disabled_rule_is_dropped(self):
        cfg = LintConfig(disabled_rules=frozenset({"DC001"}))
        found = _by_file(analyze_codebase(seeded_bug_codebase(), cfg))
        assert "bug_dc001_carried.f90" not in found
        assert "bug_dc002_reduction.f90" in found

    def test_suppression_glob_is_file_scoped(self):
        cfg = LintConfig(suppressions=(("DC002", "bug_dc002_*.f90"),))
        found = _by_file(analyze_codebase(seeded_bug_codebase(), cfg))
        assert "bug_dc002_reduction.f90" not in found
        assert "bug_dc001_carried.f90" in found


@pytest.fixture(scope="module")
def code1():
    from repro.fortran.codebase import generate_mas_codebase

    return generate_mas_codebase()


def _version(code1, v):
    from repro.fortran.pipeline import build_version

    return build_version(v, code1=code1)


class TestPortedVersionsLintClean:
    @pytest.mark.parametrize("name", ["CPU", "A", "AD", "ADU", "AD2XU"])
    def test_directive_versions_exactly_zero(self, code1, name):
        findings = analyze_codebase(_version(code1, CodeVersion[name]))
        assert findings == []

    @pytest.mark.parametrize("name", ["D2XU", "D2XAD"])
    def test_pure_dc_versions_only_dc005_notes(self, code1, name):
        findings = analyze_codebase(_version(code1, CodeVersion[name]))
        assert findings, "atomic-dropped indirect writes must be noted"
        assert {f.rule_id for f in findings} == {"DC005"}
        assert all(f.severity is Severity.NOTE for f in findings)


class TestTransformAgreement:
    def _agreeing_regions(self, cb) -> int:
        from repro.fortran.parser import find_parallel_regions

        checked = 0
        for file in cb.files:
            for region in find_parallel_regions(file):
                verdict = region_port_safety(file, region)
                assert verdict is EXPECTED_SAFETY[region.kind], (
                    f"{file.name}:{region.start} is {region.kind.value} but "
                    f"the analyzer says {verdict.value}"
                )
                checked += 1
        return checked

    def test_analyzer_verdict_matches_region_taxonomy(self, code1):
        """Port/don't-port decisions: analyzer vs the SIV taxonomy."""
        # the full synthetic MAS region population
        assert self._agreeing_regions(code1) > 300

    def test_verdicts_agree_on_a_scaled_budget(self):
        """Not a property of MAS_BUDGET's construct mix alone."""
        from repro.fortran.codebase import generate_mas_codebase
        from tests.fortran.test_budget_variations import SMALL

        assert self._agreeing_regions(generate_mas_codebase(SMALL)) > 80
