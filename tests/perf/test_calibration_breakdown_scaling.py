"""Calibration plumbing, breakdown and scaling measurements."""

import pytest

from repro.codes import CodeVersion
from repro.perf.breakdown import measure_breakdown
from repro.perf.calibration import (
    Calibration,
    PAPER_CALIBRATION,
    build_model,
    project_run_minutes,
)
from repro.perf.scaling import measure_scaling

#: Faster calibration for tests: fewer solver iterations, one bench step.
FAST = Calibration(pcg_iters=3, sts_stages=3, bench_steps=1)


class TestCalibration:
    def test_cost_model_carries_constants(self):
        cm = PAPER_CALIBRATION.cost_model()
        assert cm.um_body_efficiency == PAPER_CALIBRATION.um_body_efficiency
        assert cm.mpi_buffer_pressure == PAPER_CALIBRATION.mpi_buffer_pressure

    def test_queue_carries_constants(self):
        q = PAPER_CALIBRATION.queue()
        assert q.submit_overhead == PAPER_CALIBRATION.submit_overhead

    def test_build_model_respects_version(self):
        m = build_model(CodeVersion.ADU, 2, calibration=FAST, extra_model_arrays=3)
        assert m.rt_config.unified_memory
        assert len(m.ranks) == 2

    def test_project_requires_timings(self):
        with pytest.raises(ValueError):
            project_run_minutes([])

    @pytest.mark.parametrize("field,value", [
        ("bench_steps", 0), ("warmup_steps", -1), ("paper_steps", 0),
    ])
    def test_step_counts_are_validated(self, field, value):
        """``bench_steps=0`` used to project the warm-up step, first-touch
        faults and all (310.0 minutes for Code 3 on 2 GPUs against 140.3),
        and to divide by zero in ``measure_categories``."""
        with pytest.raises(ValueError, match=field) as err:
            Calibration(**{field: value})
        assert "\n" not in str(err.value)

    def test_the_warm_up_step_is_never_projected(self):
        m = build_model(CodeVersion.ADU, 2, calibration=FAST, extra_model_arrays=3)
        warmup_only = m.run(FAST.warmup_steps)
        with pytest.raises(ValueError, match="warm-up"):
            project_run_minutes(warmup_only, calibration=FAST)

    def test_projection_scales_with_paper_steps(self):
        m = build_model(CodeVersion.A, 1, calibration=FAST, extra_model_arrays=3)
        ts = m.run(2)
        w1, _ = project_run_minutes(ts, calibration=FAST)
        double = Calibration(
            pcg_iters=3, sts_stages=3, bench_steps=1,
            paper_steps=FAST.paper_steps * 2,
        )
        w2, _ = project_run_minutes(ts, calibration=double)
        assert w2 == pytest.approx(2 * w1)


class TestBreakdown:
    @pytest.fixture(scope="class")
    def bars(self):
        return {
            (v, n): measure_breakdown(v, n, calibration=FAST)
            for v in (CodeVersion.A, CodeVersion.ADU)
            for n in (1, 8)
        }

    def test_wall_is_sum_of_parts(self, bars):
        b = bars[(CodeVersion.A, 1)]
        assert b.non_mpi_minutes == pytest.approx(b.wall_minutes - b.mpi_minutes)
        assert 0 < b.mpi_fraction < 1

    def test_um_mpi_blowup_at_scale(self, bars):
        """Fig. 3's core claim at 8 GPUs: UM MPI >> manual MPI."""
        manual = bars[(CodeVersion.A, 8)].mpi_minutes
        um = bars[(CodeVersion.ADU, 8)].mpi_minutes
        assert um > 5 * manual

    def test_manual_mpi_drops_with_gpus(self, bars):
        assert bars[(CodeVersion.A, 8)].mpi_minutes < bars[(CodeVersion.A, 1)].mpi_minutes / 4

    def test_um_mpi_roughly_constant(self, bars):
        """UM page-migration MPI time stays the same order 1 -> 8 GPUs."""
        r = bars[(CodeVersion.ADU, 8)].mpi_minutes / bars[(CodeVersion.ADU, 1)].mpi_minutes
        assert 0.3 < r < 1.5


class TestScaling:
    def test_series_shape(self):
        s = measure_scaling(CodeVersion.A, gpu_counts=(1, 2, 4), calibration=FAST)
        assert [p.num_gpus for p in s.points] == [1, 2, 4]
        assert s.wall(1) > s.wall(2) > s.wall(4)

    def test_super_linear_first_doubling(self):
        s = measure_scaling(CodeVersion.A, gpu_counts=(1, 2), calibration=FAST)
        assert s.speedup(2) > 2.0

    def test_ideal_reference(self):
        s = measure_scaling(CodeVersion.A, gpu_counts=(1, 4), calibration=FAST)
        ideal = s.ideal()
        assert ideal.wall(4) == pytest.approx(s.wall(1) / 4)

    def test_missing_point_raises(self):
        s = measure_scaling(CodeVersion.A, gpu_counts=(1,), calibration=FAST)
        with pytest.raises(KeyError):
            s.wall(8)
