"""Analytic / reference validations of the physics modules.

Deeper checks than unit sign tests: decay rates against closed-form
solutions, equilibrium maintenance, and cross-validation of the RKL2
integrator against a scipy implicit reference.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.codes import CodeVersion, runtime_config_for
from repro.mas import operators as ops
from repro.mas.constants import PhysicsParams
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.model import MasModel, ModelConfig
from repro.mas.sts import rkl2_advance
from repro.mpi.decomp import Decomposition3D


def make_grid(shape=(12, 10, 16)):
    g = SphericalGrid.build(shape)
    return LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)


class TestDiffusionDecayRate:
    def test_phi_mode_decays_at_analytic_rate(self):
        """A pure cos(m*phi) mode under diffusion decays like
        exp(-m^2/(r sin t)^2 * kappa * t); check the discrete rate at the
        grid's own effective wavenumber."""
        grid = make_grid((8, 6, 64))  # fine phi so the discrete rate is close
        m = 2
        f0 = np.cos(m * grid.pc)[None, None, :] * np.ones(grid.shape)
        d = ops.diffuse_flux_div(f0, grid)
        # pointwise decay rate -d/f at an interior cell
        i, j, k = 4, 3, 10
        rate = -d[i, j, k] / f0[i, j, k]
        analytic = (m / (grid.rc[i] * np.sin(grid.tc[j]))) ** 2
        assert rate == pytest.approx(analytic, rel=0.05)

    def test_rkl2_matches_matrix_exponential(self):
        """RKL2 on a small linear diffusion system vs expm reference."""
        n = 16
        lap = np.zeros((n, n))
        for i in range(n):
            lap[i, i] = -2.0
            lap[i, (i + 1) % n] = 1.0
            lap[i, (i - 1) % n] = 1.0

        rng = np.random.default_rng(0)
        u0 = rng.random(n)
        errs = []
        for dt in (0.4, 0.2):  # 0.4 is near the explicit Euler edge (0.5)
            u = [u0.copy()]
            steps = round(2.0 / dt)
            for _ in range(steps):
                u = rkl2_advance(lambda v: [lap @ v[0]], u, dt, s=6)
            ref = expm(lap * steps * dt) @ u0
            errs.append(np.abs(u[0] - ref).max())
        assert errs[0] < 5e-3          # accurate at the stability edge
        assert errs[0] / errs[1] > 3.0  # and second-order convergent


class TestEquilibriumMaintenance:
    def test_hydrostatic_atmosphere_stays_near_equilibrium(self):
        """Without heating/radiation/B, the stratified atmosphere should
        barely move over several steps (discrete equilibrium residuals
        only)."""
        params = PhysicsParams(
            viscosity=1e-3, resistivity=0.0, kappa0=0.0, lambda0=0.0, h0=0.0
        )
        m = MasModel(
            ModelConfig(shape=(16, 8, 12), params=params, b0=0.0,
                        pcg_iters=3, sts_stages=2, extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        # remove the wind seed and phi perturbation effects by measuring drift
        rho0 = m.states[0].rho.copy()
        m.run(5)
        drift = np.abs(m.states[0].rho[1:-1, 1:-1, 1:-1] - rho0[1:-1, 1:-1, 1:-1]).max()
        assert drift / rho0.max() < 0.05

    def test_zero_b_stays_zero(self):
        """The induction equation cannot create field from nothing."""
        m = MasModel(
            ModelConfig(shape=(10, 8, 12), b0=0.0, pcg_iters=2, sts_stages=2,
                        extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        m.run(3)
        assert np.abs(m.states[0].br).max() == 0.0
        assert np.abs(m.states[0].bp).max() == 0.0


class TestWindDevelopment:
    def test_heating_drives_stronger_outflow(self):
        """More coronal heating -> hotter corona -> faster outflow, the
        basic thermal-wind physics of the test problem."""
        def max_vr(h0):
            params = PhysicsParams(h0=h0)
            m = MasModel(
                ModelConfig(shape=(14, 8, 12), params=params,
                            pcg_iters=3, sts_stages=3, extra_model_arrays=0),
                runtime_config_for(CodeVersion.A),
            )
            m.run(8)
            return m.diagnostics()["max_vr"]

        weak = max_vr(1e-3)
        strong = max_vr(2e-2)
        assert strong > weak

    def test_flux_profile_diagnostic_positive_outflow(self):
        """The shell mass-flux array reduction reports outward flux once
        the wind develops."""
        m = MasModel(
            ModelConfig(shape=(14, 8, 12), pcg_iters=3, sts_stages=3,
                        extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        m.run(6)
        flux = m._last_flux_profile[0][0]  # rank 0's one member
        assert flux.shape[0] == 14
        # net outward mass flux aloft (exclude the open outer boundary
        # row, where the zero-gradient BC distorts the last shell)
        assert flux[5:-2].mean() > 0
