"""RKL2 super time-stepping."""

import numpy as np
import pytest

from repro.mas.sts import rkl2_advance, rkl2_coefficients


class TestCoefficients:
    def test_minimum_stages(self):
        with pytest.raises(ValueError):
            rkl2_coefficients(1)

    def test_first_stage_weight(self):
        c = rkl2_coefficients(4)
        w1 = 4.0 / (4**2 + 4 - 2)
        assert c.mu_tilde[1] == pytest.approx(w1 / 3.0)


class TestAdvance:
    def test_scalar_decay_accuracy(self):
        """du/dt = -u: RKL2 must track exp(-t) closely."""
        u = [np.array([1.0])]

        def apply_l(v):
            return [-vi for vi in v]

        dt = 0.05
        for _ in range(20):
            u = rkl2_advance(apply_l, u, dt, s=4)
        assert u[0][0] == pytest.approx(np.exp(-1.0), rel=5e-4)

    def test_second_order_convergence(self):
        def apply_l(v):
            return [-vi for vi in v]

        errs = []
        for dt in (0.2, 0.1, 0.05):
            u = [np.array([1.0])]
            for _ in range(round(1.0 / dt)):
                u = rkl2_advance(apply_l, u, dt, s=6)
            errs.append(abs(u[0][0] - np.exp(-1.0)))
        # halving dt should cut the error by ~4 (second order)
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_super_step_beats_explicit_euler_stability(self):
        """RKL2 with s stages is stable well past the explicit limit."""
        lam = -10.0

        def apply_l(v):
            return [lam * vi for vi in v]

        # explicit Euler limit: dt < 2/|lam| = 0.2; run at 0.7 with s=8
        u = [np.array([1.0])]
        for _ in range(20):
            u = rkl2_advance(apply_l, u, 0.7, s=8)
        assert abs(u[0][0]) < 1.0  # stable decay, no blowup

    def test_inputs_not_mutated(self):
        u0 = [np.array([1.0, 2.0])]
        rkl2_advance(lambda v: [-x for x in v], u0, 0.1, 2)
        assert np.array_equal(u0[0], [1.0, 2.0])

    def test_stage_hook_called(self):
        calls = []
        rkl2_advance(
            lambda v: [-x for x in v],
            [np.array([1.0])],
            0.1,
            5,
            on_stage=calls.append,
        )
        assert calls == [1, 2, 3, 4, 5]

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            rkl2_advance(lambda v: v, [np.zeros(1)], -0.1, 2)

    def test_diffusion_heat_spreading(self):
        """1-D diffusion via RKL2 conserves the integral and spreads."""
        n = 32
        u = [np.zeros(n)]
        u[0][n // 2] = 1.0

        def lap(v):
            # periodic Laplacian: conservative (fluxes telescope exactly)
            out = np.roll(v[0], 1) - 2 * v[0] + np.roll(v[0], -1)
            return [out]

        total0 = u[0].sum()
        for _ in range(10):
            u = rkl2_advance(lap, u, 0.3, s=5)
        assert u[0].sum() == pytest.approx(total0, rel=1e-12)
        assert u[0].max() < 1.0
        assert u[0][n // 2 - 3] > 0

