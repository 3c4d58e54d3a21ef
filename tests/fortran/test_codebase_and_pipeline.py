"""Synthetic codebase generation and the full porting pipeline.

The headline assertions of Tables I and II: the generated Code 1 census
matches Table II exactly, and every transformed version's line counts
match Table I exactly.
"""

import pytest

from repro.codes import CodeVersion, version_info
from repro.fortran.codebase import MAS_BUDGET, generate_mas_codebase, strip_to_cpu
from repro.fortran.directives import DirectiveKind
from repro.fortran.metrics import acc_line_count, directive_census, measure
from repro.fortran.pipeline import VERSION_STAGES, build_version
from repro.experiments.table2 import PAPER_CENSUS, PAPER_TOTAL


def parallel_loop_lines(budget):
    """Table II's parallel/loop census a generator budget should produce."""
    return (
        3 * (budget.plain3 + budget.caller3 + budget.plain2)
        + 4 * budget.double_regions
        + 3 * budget.scalar_reductions + 1  # one region has a `loop seq`
        + 3 * budget.array_reductions
        + 3 * budget.atomic_other
    )


@pytest.fixture(scope="module")
def code1():
    return generate_mas_codebase()


@pytest.fixture(scope="module")
def all_metrics(code1):
    return {
        v: measure(build_version(v, code1=code1)) for v in CodeVersion
    }


class TestTable2Census:
    def test_census_matches_paper_exactly(self, code1):
        assert directive_census(code1) == PAPER_CENSUS

    def test_total_acc_lines(self, code1):
        assert acc_line_count(code1) == PAPER_TOTAL

    def test_budget_parallel_loop_arithmetic(self):
        assert parallel_loop_lines(MAS_BUDGET) == 997


class TestTable1Pipeline:
    @pytest.mark.parametrize("version", list(CodeVersion))
    def test_total_lines_match_paper(self, all_metrics, version):
        assert all_metrics[version].total_lines == version_info(version).paper_total_lines

    @pytest.mark.parametrize("version", list(CodeVersion))
    def test_acc_lines_match_paper(self, all_metrics, version):
        paper = version_info(version).paper_acc_lines or 0
        assert all_metrics[version].acc_lines == paper

    def test_code5_is_directive_free(self, code1):
        cb5 = build_version(CodeVersion.D2XU, code1=code1)
        assert acc_line_count(cb5) == 0

    def test_acc_reduction_monotone_through_pipeline(self, all_metrics):
        """SIV's storyline: each step reduces directives (until Code 6
        deliberately adds data management back)."""
        order = [CodeVersion.A, CodeVersion.AD, CodeVersion.ADU,
                 CodeVersion.AD2XU, CodeVersion.D2XU]
        counts = [all_metrics[v].acc_lines for v in order]
        assert counts == sorted(counts, reverse=True)

    def test_factor_five_reduction_for_code6(self, all_metrics):
        """SIV-F: Code 6 has >5x fewer directives than Code 1."""
        assert all_metrics[CodeVersion.A].acc_lines > 5 * all_metrics[
            CodeVersion.D2XAD
        ].acc_lines

    def test_threefold_reduction_code2(self, all_metrics):
        """SIV-B: 1458 -> 540 is an almost three-fold reduction."""
        ratio = all_metrics[CodeVersion.A].acc_lines / all_metrics[CodeVersion.AD].acc_lines
        assert 2.5 < ratio < 3.0


class TestGeneratedCodeWellFormed:
    def test_code2_still_parses(self, code1):
        """Transformed code must remain in the parseable subset."""
        from repro.fortran.parser import find_parallel_regions

        cb2 = build_version(CodeVersion.AD, code1=code1)
        remaining = []
        for f in cb2.files:
            remaining.extend(find_parallel_regions(f))
        # only reduction/atomic regions survive Code 2
        from repro.fortran.parser import RegionKind

        kinds = {r.kind for r in remaining}
        assert RegionKind.PLAIN not in kinds
        assert RegionKind.ROUTINE_CALLER not in kinds
        assert kinds  # reductions still there

    def test_code2_has_do_concurrent(self, code1):
        cb2 = build_version(CodeVersion.AD, code1=code1)
        assert any(
            "do concurrent" in ln for _f, _i, ln in cb2.iter_lines()
        )

    def test_code5_no_cpu_duplicates(self, code1):
        cb5 = build_version(CodeVersion.D2XU, code1=code1)
        assert not any("_cpu(" in ln and "subroutine" in ln for _f, _i, ln in cb5.iter_lines())

    def test_code6_has_wrapper_module(self, code1):
        cb6 = build_version(CodeVersion.D2XAD, code1=code1)
        assert any(f.name == "mod_gpu_wrappers.f90" for f in cb6.files)

    def test_code0_no_directives_no_gpu_support(self, code1):
        cb0 = strip_to_cpu(code1)
        assert acc_line_count(cb0) == 0
        assert not any(f.name == "mod_gpu_support.f90" for f in cb0.files)

    def test_generation_deterministic(self):
        a = generate_mas_codebase()
        b = generate_mas_codebase()
        assert [f.lines for f in a.files] == [f.lines for f in b.files]

    def test_transform_does_not_mutate_input(self, code1):
        before = code1.total_lines
        build_version(CodeVersion.D2XU, code1=code1)
        assert code1.total_lines == before


class TestPipelines:
    def test_every_gpu_version_has_pipeline(self):
        for v in CodeVersion:
            if v is not CodeVersion.CPU:
                assert v in VERSION_STAGES
