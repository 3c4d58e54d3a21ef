"""Portability analysis of the code versions (paper SIV/SVI)."""

import pytest

from repro.codes import CodeVersion
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.pipeline import build_version
from repro.fortran.portability import (
    COMPILERS,
    LanguageLevel,
    analyze,
    render_report,
)
from repro.fortran.source import Codebase, SourceFile


@pytest.fixture(scope="module")
def reports():
    code1 = generate_mas_codebase()
    return {
        v: analyze(build_version(v, code1=code1)) for v in CodeVersion
    }


class TestLanguageLevels:
    def test_code0_is_plain_fortran(self, reports):
        assert reports[CodeVersion.CPU].language_level is LanguageLevel.F2008

    def test_code1_no_dc(self, reports):
        r = reports[CodeVersion.A]
        assert r.uses_openacc and not r.uses_do_concurrent
        assert r.language_level is LanguageLevel.F2008

    def test_code2_f2018(self, reports):
        """SIV-B: Code 2 adheres to the Fortran 2018 standard."""
        r = reports[CodeVersion.AD]
        assert r.uses_do_concurrent and not r.uses_dc_reduce
        assert r.language_level is LanguageLevel.F2018

    def test_code4_onward_needs_202x(self, reports):
        """SIV-D: using reduce breaks portability, 'only currently work
        with the nvfortran compiler (even on the CPU)'."""
        for v in (CodeVersion.AD2XU, CodeVersion.D2XU, CodeVersion.D2XAD):
            assert reports[v].language_level is LanguageLevel.F202X


class TestCompilerMatrix:
    def test_code2_cpu_portable(self, reports):
        """SVI: Code 2 'can still compile with all major CPU compilers'."""
        assert len(reports[CodeVersion.AD].compilers_that_compile()) == len(COMPILERS)

    def test_code4_compiles_only_on_nvfortran(self, reports):
        assert reports[CodeVersion.AD2XU].compilers_that_compile() == ["nvfortran 22.11"]

    def test_code1_offloads_on_openacc_compilers(self, reports):
        offload = reports[CodeVersion.A].compilers_that_offload()
        assert "nvfortran 22.11" in offload
        assert "ifx 2023" not in offload

    def test_mixed_code2_offloads_only_on_nvfortran(self, reports):
        """Code 2 needs BOTH OpenACC and DC offload: only nvfortran."""
        assert reports[CodeVersion.AD].compilers_that_offload() == ["nvfortran 22.11"]

    def test_code5_would_offload_on_ifx_if_not_for_reduce(self):
        """A reduce-free all-DC code offloads on nvfortran AND ifx -- the
        paper's hoped-for cross-vendor future (SVI)."""
        cb = Codebase(
            "future", [SourceFile("f.f90", [
                "      do concurrent (i=1:n)",
                "        a(i) = b(i)",
                "      enddo",
            ])]
        )
        r = analyze(cb)
        assert set(r.compilers_that_offload()) == {"nvfortran 22.11", "ifx 2023"}

    def test_all_compilers_build_directive_only_code(self, reports):
        """Directives are comments: every compiler builds Code 1 for CPU."""
        assert len(reports[CodeVersion.A].compilers_that_compile()) == len(COMPILERS)


class TestRender:
    def test_render_contains_key_facts(self, reports):
        out = render_report(reports[CodeVersion.D2XU])
        assert "202X" in out
        assert "GPU offload" in out

    def test_landscape_sanity(self):
        assert any(c.dc_offload for c in COMPILERS)
        assert any(c.openacc_offload for c in COMPILERS)
        assert any(not c.compiles_f202x for c in COMPILERS)
