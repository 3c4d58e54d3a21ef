"""Calibration sensitivity experiment."""

import pytest

from repro.experiments.sensitivity import (
    PERTURBED_CONSTANTS,
    SensitivityPoint,
    render_sensitivity,
    run_sensitivity,
)
from repro.perf.calibration import Calibration

TINY = Calibration(pcg_iters=2, sts_stages=2, bench_steps=1)


@pytest.fixture(scope="module")
def points():
    """Every fitted constant at 0.5x and 2x, on a reduced calibration."""
    return run_sensitivity(base=TINY)


def _doubled(points, constant):
    return next(p for p in points if p.constant == constant and p.factor == 2.0)


class TestSweep:
    def test_baseline_first(self, points):
        assert points[0].constant == "baseline"
        assert points[0].factor == 1.0

    def test_one_point_per_constant_factor(self, points):
        assert len(points) == 1 + 2 * len(PERTURBED_CONSTANTS)

    def test_baseline_conclusions_hold(self, points):
        assert points[0].conclusions_hold

    def test_conclusions_robust_to_calibration(self, points):
        """The two qualitative headlines survive every perturbation: the
        zero-directive code is meaningfully slower than OpenACC at 8 GPUs,
        and UM blows up MPI time."""
        failures = [p for p in points if not p.conclusions_hold]
        assert not failures, [f"{p.constant} x{p.factor}" for p in failures]

    def test_metrics_positive(self, points):
        for p in points:
            assert p.dc_slowdown_8 > 1.0
            assert p.um_mpi_blowup_8 > 1.0

    def test_host_overhead_moves_blowup(self, points):
        """Doubling the UM host sync must increase the MPI blowup."""
        base = points[0]
        p = _doubled(points, "um_host_mpi_overhead")
        assert p.um_mpi_blowup_8 > base.um_mpi_blowup_8

    def test_buffer_init_moves_blowup_down(self, points):
        """More manual MPI traffic shrinks the *relative* UM blowup."""
        base = points[0]
        p = _doubled(points, "halo_buffer_init_fraction")
        assert p.um_mpi_blowup_8 < base.um_mpi_blowup_8

    def test_render(self, points):
        out = render_sensitivity(points)
        assert "baseline" in out
        assert "conclusions hold" in out


class TestPoint:
    def test_hold_band(self):
        good = SensitivityPoint("x", 1.0, 2.5, 10.0)
        assert good.conclusions_hold
        assert not SensitivityPoint("x", 1.0, 1.0, 10.0).conclusions_hold
        assert not SensitivityPoint("x", 1.0, 2.5, 1.5).conclusions_hold
