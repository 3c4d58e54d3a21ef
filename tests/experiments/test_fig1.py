"""Fig. 1 experiment (test-case visualization)."""

import numpy as np
import pytest

from repro.experiments.fig1 import render_fig1, run_fig1
from repro.mas.constants import PhysicsParams


@pytest.fixture(scope="module")
def result():
    return run_fig1(shape=(12, 10, 16), steps=8)


class TestFig1:
    def test_cut_shapes(self, result):
        assert result.meridional_temp.shape == (12, 10)
        assert result.shell_temp.shape == (10, 16)
        assert result.r_centers.shape == (12,)

    def test_solution_properties(self, result):
        assert result.corona_heated
        assert float(result.meridional_temp.std()) > 1e-4  # stratified, not noise
        assert np.isfinite(result.meridional_temp).all()
        assert result.meridional_temp.min() > 0         # floors held
        assert result.diagnostics["max_vr"] > 0         # outflow developing

    def test_divb_preserved(self, result):
        assert result.diagnostics["max_divb"] < 1e-11

    def test_render_contains_both_cuts(self, result):
        out = render_fig1(result)
        assert "meridional cut" in out
        assert "low-corona shell" in out
        assert "max|divB|" in out

    def test_params_threaded(self):
        r = run_fig1(shape=(10, 8, 12), steps=3,
                     params=PhysicsParams(h0=0.0, lambda0=0.0))
        assert np.isfinite(r.meridional_temp).all()
