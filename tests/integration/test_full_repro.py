"""End-to-end integration: the complete reproduction story in one place.

Ties all subsystems together the way the paper's narrative does: port the
source (Tables I/II), run the physics identically under every version,
and verify the performance mechanisms (Figs. 2-4) from a single model
configuration.
"""

import numpy as np
import pytest

from repro.codes import CodeVersion, GPU_VERSIONS, runtime_config_for, version_info
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.metrics import measure
from repro.fortran.pipeline import build_version
from repro.mas.model import MasModel, ModelConfig
from tests.mas.validate import states_equivalent
from repro.perf.calibration import Calibration
from repro.obs.events import Profiler
from repro.runtime.clock import TimeCategory

CAL = Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)


class TestStoryline:
    """SIV-SVI as one integration scenario."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        code1 = generate_mas_codebase()
        models = {}
        for v in (CodeVersion.A, CodeVersion.AD, CodeVersion.D2XU):
            m = MasModel(
                ModelConfig(shape=(10, 8, 16), num_ranks=4,
                            pcg_iters=3, sts_stages=3, extra_model_arrays=5),
                runtime_config_for(v),
            )
            m.run(3)
            models[v] = m
        return code1, models

    def test_source_and_runtime_agree_on_directive_story(self, artifacts):
        """The version with zero directives in *source* must be the one
        whose *runtime* uses no OpenACC backend."""
        code1, _ = artifacts
        for v in GPU_VERSIONS:
            acc_lines = measure(build_version(v, code1=code1)).acc_lines
            uses_acc = runtime_config_for(v).uses_openacc
            if acc_lines == 0:
                # Code 5: directive-free source, DC-only runtime (Code 6
                # keeps data directives but no loop directives)
                if v is CodeVersion.D2XU:
                    assert not uses_acc

    def test_identical_physics_different_cost(self, artifacts):
        _, models = artifacts
        a, ad, d2xu = (models[v] for v in (CodeVersion.A, CodeVersion.AD, CodeVersion.D2XU))
        for name in ("rho", "temp", "vr", "br"):
            assert np.array_equal(a.states[0].get(name), d2xu.states[0].get(name))
        assert a.wall_time() < d2xu.wall_time()
        assert a.wall_time() <= ad.wall_time()

    def test_solution_quality_independent_of_ranks(self):
        ms = {}
        for n in (1, 8):
            m = MasModel(
                ModelConfig(shape=(10, 8, 16), num_ranks=n,
                            pcg_iters=3, sts_stages=3, extra_model_arrays=3),
                runtime_config_for(CodeVersion.A),
            )
            m.run(3)
            ms[n] = m
        diffs = states_equivalent(
            ms[1].states, ms[1].decomp, ms[8].states, ms[8].decomp, tol=1e-9
        )
        assert max(diffs.values()) < 1e-9

    def test_profiler_captures_whole_step(self, artifacts):
        _, models = artifacts
        m = models[CodeVersion.A]
        p = Profiler()
        for r, rt in enumerate(m.ranks):
            p.attach(rt.clock, f"gpu{r}")
        m.step()
        record = p.record()
        for category in (TimeCategory.COMPUTE, TimeCategory.MPI_TRANSFER):
            rows = record.category == record.category_id(category.value)
            assert record.duration[rows].sum() > 0
        for kernel in ("visc_matvec_vr", "conduction_rhs", "ct_update_br"):
            assert any(kernel in label for label in record.labels), kernel


class TestPaperHeadlines:
    """The abstract's three quantitative claims."""

    def _step_wall(self, version, n):
        from repro.perf.calibration import build_model

        m = build_model(version, n, calibration=CAL, extra_model_arrays=67)
        m.run(1)
        return m.run(1)[0].wall

    def test_zero_directives_possible(self):
        code5 = build_version(CodeVersion.D2XU)
        assert measure(code5).acc_lines == 0

    def test_slowdown_between_125_and_3x(self):
        s1 = self._step_wall(CodeVersion.D2XU, 1) / self._step_wall(CodeVersion.A, 1)
        s8 = self._step_wall(CodeVersion.D2XU, 8) / self._step_wall(CodeVersion.A, 8)
        assert 1.25 < s1 < 3.3
        assert 1.25 < s8 < 3.3

    def test_factor_five_directive_reduction_with_performance(self):
        """Code 6: >5x fewer directives, close to original performance."""
        code1 = generate_mas_codebase()
        acc1 = measure(build_version(CodeVersion.A, code1=code1)).acc_lines
        acc6 = measure(build_version(CodeVersion.D2XAD, code1=code1)).acc_lines
        assert acc1 > 5 * acc6
        w1 = self._step_wall(CodeVersion.A, 8)
        w6 = self._step_wall(CodeVersion.D2XAD, 8)
        assert w6 < 1.3 * w1


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        """Two runs of the whole reproduction give identical outputs."""
        def one():
            code1 = generate_mas_codebase()
            metrics = tuple(
                (measure(build_version(v, code1=code1)).total_lines,
                 measure(build_version(v, code1=code1)).acc_lines)
                for v in CodeVersion
            )
            m = MasModel(
                ModelConfig(shape=(8, 6, 8), pcg_iters=2, sts_stages=2,
                            extra_model_arrays=0),
                runtime_config_for(CodeVersion.AD),
            )
            m.run(2)
            return metrics, m.wall_time(), m.states[0].rho.copy()

        (met_a, wall_a, rho_a) = one()
        (met_b, wall_b, rho_b) = one()
        assert met_a == met_b
        assert wall_a == wall_b
        assert np.array_equal(rho_a, rho_b)
