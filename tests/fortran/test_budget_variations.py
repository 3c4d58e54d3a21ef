"""Generator flexibility: non-default budgets still transform consistently.

The MAS budget reproduces the paper exactly; these tests vary the
construct mix and check the *invariants* of the pipeline (census
arithmetic, per-pass deltas, directive-free Code 5) rather than the
paper's specific numbers -- evidence the passes are general transforms,
not hard-coded to one input.
"""

import dataclasses

import pytest

from repro.codes import CodeVersion
from repro.fortran.codebase import GeneratorBudget, MAS_BUDGET, generate_mas_codebase
from repro.fortran.directives import DirectiveKind
from repro.fortran.metrics import acc_line_count, directive_census, measure
from repro.fortran.pipeline import build_version
from tests.fortran.test_codebase_and_pipeline import parallel_loop_lines


def scaled_budget(**overrides) -> GeneratorBudget:
    return dataclasses.replace(MAS_BUDGET, **overrides)


SMALL = scaled_budget(
    plain3=40, caller3=5, plain2=10, double_regions=15, double_with_cont=3,
    scalar_reductions=6, array_reductions=4, atomic_other=2,
    enter_data=30, exit_data=30, update_data=12, enter_data_cont=17,
    dup_cpu_routines=8, legacy_lines_total=52, gpu_support_lines=100,
    total_lines_code1=20000,
)


@pytest.fixture(scope="module")
def small_code1():
    return generate_mas_codebase(SMALL)


class TestBudgetArithmetic:
    def test_census_matches_budget_formula(self, small_code1):
        census = directive_census(small_code1)
        assert census[DirectiveKind.PARALLEL_LOOP] == parallel_loop_lines(SMALL)
        assert census[DirectiveKind.ATOMIC] == (
            2 * SMALL.array_reductions + 4 * SMALL.atomic_other
        )
        assert census[DirectiveKind.ROUTINE] == SMALL.routine_defs
        assert census[DirectiveKind.KERNELS] == 2 * SMALL.kernels_regions
        assert census[DirectiveKind.CONTINUATION] == (
            SMALL.double_with_cont + SMALL.enter_data_cont + SMALL.dtype_cont
        )

    def test_total_lines_hit(self, small_code1):
        assert small_code1.total_lines == 20000


class TestPipelineInvariants:
    @pytest.fixture(scope="class")
    def versions(self, small_code1):
        return {
            v: build_version(v, code1=small_code1, budget=SMALL)
            for v in CodeVersion
        }

    def test_code5_always_directive_free(self, versions):
        assert acc_line_count(versions[CodeVersion.D2XU]) == 0

    def test_code0_always_directive_free(self, versions):
        assert acc_line_count(versions[CodeVersion.CPU]) == 0

    def test_monotone_directive_reduction(self, versions):
        order = [CodeVersion.A, CodeVersion.AD, CodeVersion.ADU,
                 CodeVersion.AD2XU, CodeVersion.D2XU]
        counts = [acc_line_count(versions[v]) for v in order]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_code2_delta_formula(self, versions, small_code1):
        """Code 2 removes exactly the plain/caller/double region directives
        plus their continuations."""
        removed = (
            acc_line_count(small_code1) - acc_line_count(versions[CodeVersion.AD])
        )
        expected = (
            3 * (SMALL.plain3 + SMALL.caller3 + SMALL.plain2)
            + 4 * SMALL.double_regions
            + SMALL.double_with_cont
        )
        assert removed == expected

    def test_code3_keeps_only_special_data(self, versions):
        census = directive_census(versions[CodeVersion.ADU])
        # declare + its update + derived-type enter/exit survive
        assert census[DirectiveKind.DATA] == 2 + SMALL.dtype_enter_exit

    def test_code6_adds_wrapper_budget(self, versions):
        census6 = directive_census(versions[CodeVersion.D2XAD])
        from repro.fortran.transforms.readd_data import WrapperBudget

        assert sum(census6.values()) == WrapperBudget().acc_lines

    def test_dup_routines_removed_in_code5_kept_in_code6(self, versions):
        code5 = versions[CodeVersion.D2XU]
        code6 = versions[CodeVersion.D2XAD]
        text5 = "\n".join(ln for _f, _i, ln in code5.iter_lines())
        text6 = "\n".join(ln for _f, _i, ln in code6.iter_lines())
        assert "_cpu(" not in text5
        assert "smooth_field0_cpu" in text6


class TestBudgetValidation:
    def test_overfull_budget_rejected(self):
        tiny = scaled_budget(total_lines_code1=500)
        with pytest.raises(ValueError, match="exceeds"):
            generate_mas_codebase(tiny)
