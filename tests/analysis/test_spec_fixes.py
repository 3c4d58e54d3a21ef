"""RT3xx spec-patch fixes: attach, parse, apply, and rewriter safety."""

from dataclasses import replace

from repro.analysis.dependence import base_name
from repro.analysis.findings import Finding
from repro.analysis.fixes import (
    SPEC_ARTIFACT_PREFIX,
    SPEC_PATCH_RULES,
    Fix,
    attach_spec_fixes,
)
from repro.analysis.report import findings_to_sarif
from repro.analysis.rewriter import apply_fixes
from repro.fortran.source import Codebase, SourceFile
from repro.runtime.kernel import KernelSpec


def parse_spec_patch(fix: Fix) -> list[tuple[str, str]]:
    """Decode a spec-patch fix into ``(op, argument)`` pairs."""
    ops = []
    for edit in fix.edits:
        if not edit.file.startswith(SPEC_ARTIFACT_PREFIX):
            raise ValueError(f"not a spec patch: {edit.file!r}")
        for line in edit.replacement:
            op, _, arg = line.partition(" ")
            if op not in ("add-write", "drop-write", "drop", "drop-tag") or not arg:
                raise ValueError(f"bad spec-patch line: {line!r}")
            ops.append((op, arg.strip()))
    return ops


def apply_spec_patch(spec, fix: Fix):
    """A corrected copy of ``spec`` with the patch applied: what the patch
    DSL means. Matching is by base array name, so region-qualified tokens
    (``rho@g2m``) drop with their base."""
    reads = list(spec.reads)
    writes = list(spec.writes)
    tags = list(spec.tags)
    for op, arg in parse_spec_patch(fix):
        if op == "add-write":
            if not any(base_name(w) == arg for w in writes):
                writes.append(arg)
        elif op == "drop-write":
            writes = [w for w in writes if base_name(w) != arg]
        elif op == "drop":
            reads = [r for r in reads if base_name(r) != arg]
            writes = [w for w in writes if base_name(w) != arg]
        elif op == "drop-tag":
            tags = [t for t in tags if t != arg]
    return replace(
        spec, reads=tuple(reads), writes=tuple(writes), tags=tuple(tags)
    )


def _finding(rule, kernel="pcg_axpy", context="w"):
    return Finding(rule, kernel, 0, f"synthetic {rule}", context=context)


def _spec(**kw):
    defaults = dict(
        name="pcg_axpy", reads=("x", "y"), writes=("y",),
        tags=frozenset({"async:1"}),
    )
    defaults.update(kw)
    return KernelSpec(**defaults)


class TestAttach:
    def test_all_spec_patch_rules_get_fixes(self):
        findings = [_finding(rule) for rule in sorted(SPEC_PATCH_RULES)]
        out = attach_spec_fixes(findings)
        assert all(f.fix is not None for f in out)
        for f in out:
            assert f.fix.edits[0].file == f"{SPEC_ARTIFACT_PREFIX}pcg_axpy"

    def test_finding_without_context_passes_through(self):
        out = attach_spec_fixes([_finding("RT320", context="")])
        assert out[0].fix is None

    def test_non_spec_rules_untouched(self):
        out = attach_spec_fixes([_finding("RT302")])
        assert out[0].fix is None  # report-only: data placement issue

    def test_order_preserved(self):
        findings = [_finding("RT320"), _finding("RT302"), _finding("RT321")]
        out = attach_spec_fixes(findings)
        assert [f.rule_id for f in out] == ["RT320", "RT302", "RT321"]


class TestParseApply:
    def test_parse_round_trip(self):
        [f] = attach_spec_fixes([_finding("RT320", context="rho")])
        assert parse_spec_patch(f.fix) == [("add-write", "rho")]

    def test_rt320_adds_missing_write(self):
        [f] = attach_spec_fixes([_finding("RT320", context="rho")])
        patched = apply_spec_patch(_spec(), f.fix)
        assert "rho" in patched.writes

    def test_rt320_no_duplicate_write(self):
        [f] = attach_spec_fixes([_finding("RT320", context="y")])
        patched = apply_spec_patch(_spec(), f.fix)
        assert tuple(patched.writes) == ("y",)

    def test_rt321_drops_dead_write(self):
        [f] = attach_spec_fixes([_finding("RT321", context="y")])
        patched = apply_spec_patch(_spec(), f.fix)
        assert "y" not in patched.writes

    def test_rt321_drops_region_qualified_write(self):
        [f] = attach_spec_fixes([_finding("RT321", context="rho")])
        patched = apply_spec_patch(_spec(writes=("rho@g2m",)), f.fix)
        assert patched.writes == ()

    def test_rt301_drops_from_both_footprints(self):
        [f] = attach_spec_fixes([_finding("RT301", context="x")])
        patched = apply_spec_patch(_spec(), f.fix)
        assert "x" not in patched.reads and "x" not in patched.writes

    def test_rt310_drops_async_tag(self):
        [f] = attach_spec_fixes([_finding("RT310", context="async:1")])
        patched = apply_spec_patch(_spec(), f.fix)
        assert "async:1" not in patched.tags


class TestRewriterSafety:
    def test_spec_fix_is_skipped_stale_never_applied(self):
        cb = Codebase("t", [SourceFile("t.f90", ["x = 1"])])
        [f] = attach_spec_fixes([_finding("RT320", context="rho")])
        before = list(cb.file("t.f90").lines)
        report = apply_fixes(cb, [f.fix])
        assert report.applied == []
        assert cb.file("t.f90").lines == before

    def test_sarif_carries_the_spec_fix(self):
        findings = attach_spec_fixes([_finding("RT320", context="rho")])
        sarif = findings_to_sarif(findings)
        assert f"{SPEC_ARTIFACT_PREFIX}pcg_axpy" in sarif
        assert "add-write rho" in sarif
