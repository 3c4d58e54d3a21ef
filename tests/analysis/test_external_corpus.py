"""End-to-end analyzer/porter runs over the external fixture corpus.

The corpus under ``tests/fixtures/external`` is written in the style of
real production OpenACC solar-MHD codes (modules, continuations, mixed
case sentinels, CRLF files, interface blocks, combined constructs) and
pins golden lint / parse-census / cost outputs byte-for-byte.
"""

from pathlib import Path

import pytest

from repro.analysis.findings import sort_findings
from repro.analysis.fortran_lint import analyze_codebase
from repro.analysis.cost import estimate_cost
from repro.analysis.port import (
    PortTarget,
    port_tree_incremental,
    read_manifest,
    write_ported_tree,
)
from repro.analysis.report import render_findings
from repro.fortran.frontend import load_external_tree

CORPUS = Path(__file__).parent.parent / "fixtures" / "external"
GOLDEN = CORPUS / "golden"


def _load():
    return load_external_tree(CORPUS, name="external")


def _merged(res):
    return sort_findings(
        [*analyze_codebase(res.codebase), *res.diagnostics]
    )


class TestCorpusLint:
    def test_lowering_never_crashes(self):
        res = _load()
        assert len(res.codebase.files) >= 10

    def test_census_coverage_at_least_90_percent(self):
        res = _load()
        assert res.census.coverage >= 0.90

    def test_golden_lint_output(self):
        res = _load()
        expected = (GOLDEN / "lint.txt").read_text()
        assert render_findings(_merged(res)) + "\n" == expected

    def test_golden_census_output(self):
        res = _load()
        expected = (GOLDEN / "census.txt").read_text()
        assert res.census.render() + "\n" == expected

    def test_golden_cost_output(self):
        res = _load()
        expected = (GOLDEN / "cost.txt").read_text()
        report = estimate_cost(res.codebase, census=res.census)
        assert report.render() + "\n" == expected

    def test_cost_report_is_internally_consistent(self):
        res = _load()
        report = estimate_cost(res.codebase, census=res.census)
        assert report.skipped_regions == 0
        assert report.projected_acc_lines <= report.acc_lines
        total_regions = sum(b.regions for b in report.buckets.values())
        assert total_regions == sum(len(b.sites) for b in report.buckets.values())

    def test_seeded_findings_present(self):
        rules = {f.rule_id for f in _merged(_load())}
        assert "DC002" in rules   # solve.f90's undeclared reduction
        assert "FE001" in rules   # kernels_demo.f90's cache directive


class TestFixThenPort:
    def test_fix_leaves_zero_fixable_findings(self):
        from repro.analysis.fixes import attach_fixes
        from repro.analysis.rewriter import apply_finding_fixes

        res = _load()
        findings = attach_fixes(res.codebase, _merged(res))
        rep = apply_finding_fixes(res.codebase, findings)
        assert len(rep.applied) >= 1
        after = attach_fixes(res.codebase, _merged(res))
        assert [f for f in after if f.fix is not None] == []

    def test_incremental_port_refuses_undeclared_reduction(self):
        res = _load()
        result = port_tree_incremental(res.codebase, PortTarget.DC)
        by_name = {s.name: s for s in result.statuses}
        assert by_name["src/solve.f90"].status == "refused"
        assert "undeclared reduction" in by_name["src/solve.f90"].reason
        assert result.counts()["ported"] >= 9

    def test_fix_then_port_converts_everything(self):
        from repro.analysis.fixes import attach_fixes
        from repro.analysis.rewriter import apply_finding_fixes

        res = _load()
        findings = attach_fixes(res.codebase, _merged(res))
        apply_finding_fixes(res.codebase, findings)
        result = port_tree_incremental(res.codebase, PortTarget.DC)
        assert result.counts()["refused"] == 0
        ported = result.codebase
        dc_lines = [
            ln for f in ported.files for ln in f.lines
            if "do concurrent" in ln.lower()
        ]
        assert len(dc_lines) >= 10
        assert any("reduce(+:esum)" in ln for ln in dc_lines)

    def test_limit_and_manifest_resume(self, tmp_path):
        res = _load()
        first = port_tree_incremental(res.codebase, PortTarget.ACC_OPT, limit=3)
        counts = first.counts()
        assert counts["ported"] == 3 and counts["pending"] >= 1
        out = tmp_path / "ported"
        write_ported_tree(first, out)
        prior = read_manifest(out)
        assert sum(1 for s in prior.values() if s.status == "ported") == 3

        res2 = _load()
        second = port_tree_incremental(
            res2.codebase, PortTarget.ACC_OPT, prior=prior, limit=3
        )
        counts2 = second.counts()
        assert counts2["ported"] == 6  # 3 re-ported free + 3 new

    @pytest.mark.parametrize("damaged", [
        "[]",
        '{"schema": "repro-port-manifest/1", "files": [{"status": "ported"}]}',
        '{"schema": "repro-port-manifest/1", "files":'
        ' [{"name": "a.f90", "status": "ported", "converted": "x"}]}',
        "[" * 100000 + "]" * 100000,
    ], ids=["not-an-object", "entry-without-name", "count-not-a-number", "nested"])
    def test_damaged_manifest_is_no_manifest(self, tmp_path, damaged):
        (tmp_path / "port-manifest.json").write_text(damaged)
        assert read_manifest(tmp_path) == {}

    def test_written_tree_restores_opaque_constructs(self, tmp_path):
        res = _load()
        result = port_tree_incremental(res.codebase, PortTarget.DC)
        out = tmp_path / "ported"
        write_ported_tree(result, out)
        interp = (out / "src" / "interp.f90").read_text()
        assert "repro-fe opaque" not in interp
        assert "interface" in interp  # the opaque block came back as code
        manifest = read_manifest(out)
        assert set(manifest) == {f.name for f in res.codebase.files}

    def test_refused_files_keep_their_openacc(self, tmp_path):
        res = _load()
        result = port_tree_incremental(res.codebase, PortTarget.DC)
        out = tmp_path / "ported"
        write_ported_tree(result, out)
        refused = [s.name for s in result.statuses if s.status == "refused"]
        assert refused
        for name in refused:
            original = (CORPUS / name).read_text()
            written = (out / name).read_text()
            # untouched modulo normalization: same directive count, no DC
            # introduced, no front-end markers leaking into the output
            assert written.lower().count("!$acc") == original.lower().count("!$acc")
            assert "do concurrent" not in written.lower()
            assert "repro-fe opaque" not in written


class TestRewriterOnMessyFiles:
    """Idempotence and stale-anchor behavior on CRLF / trailing-whitespace
    sources (the rewriter sees them post-normalization)."""

    SOURCE = (
        "subroutine accum(a, s, n)\r\n"
        "integer :: i, n  \r\n"
        "real(8) :: a(n), s   \r\n"
        "s = 0.0\r\n"
        "!$acc parallel loop default(present)\t\r\n"
        "do i = 1, n\r\n"
        "  s = s + a(i) \r\n"
        "enddo\r\n"
        "end subroutine accum\r\n"
    )

    def _load(self, tmp_path):
        (tmp_path / "accum.f90").write_text(self.SOURCE)
        return load_external_tree(tmp_path, name="messy")

    def test_fix_applies_once_then_stale(self, tmp_path):
        from repro.analysis.fixes import attach_fixes
        from repro.analysis.rewriter import apply_finding_fixes

        res = self._load(tmp_path)
        findings = attach_fixes(res.codebase, _merged(res))
        fixable = [f for f in findings if f.fix is not None]
        assert fixable  # the undeclared reduction on s
        first = apply_finding_fixes(res.codebase, findings)
        assert len(first.applied) >= 1
        after_lines = [list(f.lines) for f in res.codebase.files]

        # replaying the *same* fixes must not apply at shifted offsets:
        # every edit is anchored to content that no longer matches
        second = apply_finding_fixes(res.codebase, findings)
        assert second.applied == []
        assert len(second.skipped_stale) >= 1
        assert [list(f.lines) for f in res.codebase.files] == after_lines

    def test_refix_after_relint_is_noop(self, tmp_path):
        from repro.analysis.fixes import attach_fixes
        from repro.analysis.rewriter import apply_finding_fixes

        res = self._load(tmp_path)
        apply_finding_fixes(res.codebase, attach_fixes(res.codebase, _merged(res)))
        again = attach_fixes(res.codebase, _merged(res))
        assert [f for f in again if f.fix is not None] == []
        report = apply_finding_fixes(res.codebase, again)
        assert report.applied == []


class TestSixVersionIdentity:
    """The synthetic versions must survive a disk round trip through the
    front end with identical analysis results."""

    @pytest.mark.parametrize("version", ["A", "AD", "D2XAD"])
    def test_findings_and_census_unchanged(self, version, tmp_path):
        from repro.codes import CodeVersion
        from repro.fortran.codebase import generate_mas_codebase
        from repro.fortran.metrics import directive_census
        from repro.fortran.pipeline import build_version
        from repro.fortran.tree_io import save_tree

        cb = build_version(CodeVersion[version], code1=generate_mas_codebase())
        direct_findings = render_findings(sort_findings(analyze_codebase(cb)))
        direct_census = directive_census(cb)

        root = save_tree(cb, tmp_path)
        res = load_external_tree(root, name=cb.name)
        assert res.diagnostics == []  # nothing degrades
        assert res.census.coverage == 1.0
        roundtrip = render_findings(_merged(res))
        assert roundtrip == direct_findings
        assert directive_census(res.codebase) == direct_census
