"""Viscosity, conduction, radiation/heating term modules."""

import numpy as np
import pytest

from repro.mas.conduction import conduction_rhs, kappa_centered
from repro.mas.constants import PhysicsParams
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.radiation import (
    LAMBDA_PEAK_T,
    energy_source_rate,
    heating_profile,
    loss_function,
    radiative_loss,
)
from repro.mas.viscosity import (
    implicit_matvec,
    jacobi_diagonal,
    viscous_rhs,
)
from repro.mpi.decomp import Decomposition3D


@pytest.fixture(scope="module")
def grid():
    g = SphericalGrid.build((10, 8, 12))
    return LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)


@pytest.fixture(scope="module")
def params():
    return PhysicsParams()


class TestPhysicsParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicsParams(gamma=1.0)
        with pytest.raises(ValueError):
            PhysicsParams(viscosity=-1)
        with pytest.raises(ValueError):
            PhysicsParams(cfl=1.5)
        with pytest.raises(ValueError):
            PhysicsParams(rho_floor=0)

    def test_eos(self, params):
        assert params.pressure(2.0, 3.0) == 6.0
        assert params.sound_speed_sq(1.0) == pytest.approx(params.gamma)


class TestViscosity:
    def test_rhs_smooths(self, grid):
        v = np.zeros(grid.shape)
        v[5, 4, 6] = 1.0
        rhs = viscous_rhs(v, grid, nu=0.01)
        assert rhs[5, 4, 6] < 0
        assert rhs[4, 4, 6] > 0

    def test_zero_viscosity(self, grid):
        v = np.random.default_rng(0).random(grid.shape)
        assert np.allclose(viscous_rhs(v, grid, 0.0), 0.0)

    def test_negative_viscosity_rejected(self, grid):
        with pytest.raises(ValueError):
            viscous_rhs(np.zeros(grid.shape), grid, -1.0)

    def test_matvec_identity_at_zero_dt(self, grid):
        v = np.random.default_rng(1).random(grid.shape)
        assert np.allclose(implicit_matvec(v, grid, 0.01, 0.0), v)

    def test_matvec_spd_on_interior(self, grid):
        """x.(A x) > 0 for the backward-Euler viscous operator."""
        rng = np.random.default_rng(2)
        i = grid.interior()
        for _ in range(5):
            v = np.zeros(grid.shape)
            v[i] = rng.standard_normal(v[i].shape)
            av = implicit_matvec(v, grid, 0.01, 0.1)
            assert np.vdot(v[i], av[i]) > 0

    def test_jacobi_diagonal_dominates_identity(self, grid):
        d = jacobi_diagonal(grid, nu=0.01, dt=0.1)
        assert np.all(d >= 1.0)
        i = grid.interior()
        assert np.all(d[i] > 1.0)

    def test_diagonal_matches_operator_on_unit_vectors(self, grid):
        """diag(A)[c] == e_c . A e_c for a few interior cells."""
        nu, dt = 0.02, 0.05
        d = jacobi_diagonal(grid, nu, dt)
        for c in [(3, 3, 3), (5, 4, 6), (2, 2, 2)]:
            e = np.zeros(grid.shape)
            e[c] = 1.0
            ae = implicit_matvec(e, grid, nu, dt)
            assert ae[c] == pytest.approx(d[c], rel=1e-12)


class TestConduction:
    def test_kappa_spitzer_scaling(self, params):
        t = np.array([1.0, 4.0])
        k = kappa_centered(t, params)
        assert k[1] / k[0] == pytest.approx(4.0**2.5)

    def test_kappa_floored(self, params):
        k = kappa_centered(np.array([-5.0]), params)
        assert k[0] == pytest.approx(params.kappa0 * params.temp_floor**2.5)

    def test_uniform_temperature_no_conduction(self, grid, params):
        t = np.full(grid.shape, 1.0)
        rho = np.full(grid.shape, 1.0)
        assert np.allclose(conduction_rhs(t, rho, grid, params), 0.0)

    def test_heat_flows_from_hot_to_cold(self, grid, params):
        t = np.full(grid.shape, 1.0)
        t[5, 4, 6] = 2.0
        rho = np.ones(grid.shape)
        rhs = conduction_rhs(t, rho, grid, params)
        assert rhs[5, 4, 6] < 0
        assert rhs[4, 4, 6] > 0

    def test_denser_plasma_heats_slower(self, grid, params):
        t = np.full(grid.shape, 1.0)
        t[5, 4, 6] = 2.0
        light = conduction_rhs(t, np.ones(grid.shape), grid, params)
        heavy = conduction_rhs(t, 10 * np.ones(grid.shape), grid, params)
        assert abs(heavy[4, 4, 6]) < abs(light[4, 4, 6])


class TestRadiation:
    def test_loss_function_peaks(self):
        t = np.linspace(0.05, 4.0, 200)
        lam = loss_function(t)
        t_peak = t[np.argmax(lam)]
        assert t_peak == pytest.approx(LAMBDA_PEAK_T, abs=0.05)

    def test_loss_scales_rho_squared(self, params):
        q1 = radiative_loss(np.array([1.0]), np.array([1.0]), params)
        q2 = radiative_loss(np.array([2.0]), np.array([1.0]), params)
        assert q2[0] / q1[0] == pytest.approx(4.0)

    def test_heating_decays_with_radius(self, grid, params):
        h = heating_profile(grid, params)
        assert h[1, 0, 0] > h[-2, 0, 0]
        assert h.shape == grid.shape

    def test_energy_source_sign(self, grid, params):
        """Cold tenuous plasma heats; dense cool plasma radiates away."""
        heat = heating_profile(grid, params)
        rho_thin = np.full(grid.shape, 1e-3)
        t = np.full(grid.shape, 1.0)
        rate_thin = energy_source_rate(rho_thin, t, heat, params)
        assert np.all(rate_thin > 0)
        rho_dense = np.full(grid.shape, 50.0)
        rate_dense = energy_source_rate(rho_dense, t, heat, params)
        assert np.all(rate_dense < 0)
