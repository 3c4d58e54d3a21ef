"""Cross-cutting properties of the transformation passes."""

import pytest

from repro.codes import CodeVersion
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.directives import DirectiveKind
from repro.fortran.metrics import acc_line_count, directive_census
from repro.fortran.pipeline import build_version
from repro.fortran.transforms import PureDcPass, UnifiedMemPass
from tests.fortran.test_transforms import dc_202x, dc_f2018


@pytest.fixture(scope="module")
def code1():
    return generate_mas_codebase()


class TestIdempotency:
    """Re-running a pass on its own output must change nothing: each pass
    rewrites constructs into forms it no longer matches."""

    @pytest.mark.parametrize("pass_cls", [dc_f2018, UnifiedMemPass, dc_202x])
    def test_single_pass_idempotent(self, code1, pass_cls):
        p = pass_cls()
        once = code1.copy()
        p.apply(once)
        twice = once.copy()
        p.apply(twice)
        assert [f.lines for f in once.files] == [f.lines for f in twice.files]

    def test_pure_dc_idempotent_after_pipeline(self, code1):
        cb = code1.copy()
        for p in (dc_f2018(), UnifiedMemPass(), dc_202x(), PureDcPass()):
            p.apply(cb)
        again = cb.copy()
        PureDcPass().apply(again)
        assert [f.lines for f in cb.files] == [f.lines for f in again.files]


class TestNoComputationLost:
    """Porting must never delete computational statements (only
    directives, glue, duplicates, and loop scaffolding change)."""

    def _statements(self, cb):
        keep = []
        for _f, _i, ln in cb.iter_lines():
            s = ln.strip()
            if "=" in s and not s.startswith("!") and "do " not in s:
                # normalize: a computational assignment's RHS payload
                keep.append(s.split("=", 1)[1].strip())
        return keep

    def test_code2_keeps_every_kernel_statement(self, code1):
        before = self._statements(code1)
        cb2 = build_version(CodeVersion.AD, code1=code1)
        after = set(self._statements(cb2))
        # every physics statement of code1's parallel regions survives
        for stmt in before:
            if "(i,j,k)" in stmt or "(i,j)" in stmt:
                assert stmt in after, stmt


class TestDirectiveTaxonomyClosure:
    def test_no_pass_creates_unknown_directives(self, code1):
        """Every directive in every derived version parses cleanly."""
        for v in CodeVersion:
            cb = build_version(v, code1=code1)
            census = directive_census(cb)  # raises on unparseable lines
            assert sum(census.values()) == acc_line_count(cb)

    def test_um_pass_removes_only_data_kind(self, code1):
        cb = code1.copy()
        dc_f2018().apply(cb)
        before = directive_census(cb)
        UnifiedMemPass().apply(cb)
        after = directive_census(cb)
        for kind in DirectiveKind:
            if kind in (DirectiveKind.DATA, DirectiveKind.CONTINUATION):
                assert after[kind] <= before[kind]
            else:
                assert after[kind] == before[kind], kind
