"""Semi-implicit wave stabilization."""

import numpy as np
import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.mas.semi_implicit import max_wave_speed, si_coefficient
from repro.mas.viscosity import implicit_matvec, jacobi_diagonal
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.initial import initialize
from repro.mas.constants import PhysicsParams
from repro.mpi.decomp import Decomposition3D


def make(si, dt, steps=10):
    cfg = ModelConfig(
        shape=(10, 8, 12), pcg_iters=3, sts_stages=3, extra_model_arrays=0,
        fixed_dt=dt, semi_implicit=si,
    )
    m = MasModel(cfg, runtime_config_for(CodeVersion.A))
    m.run(steps)
    return m


class TestOperator:
    @pytest.fixture(scope="class")
    def grid(self):
        g = SphericalGrid.build((10, 8, 12))
        return LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)

    def test_coefficient_scaling(self):
        assert si_coefficient(2.0, 0.1) == pytest.approx(2.0**2 * 0.1)
        assert si_coefficient(2.0, 0.1, theta=0.0) == 0.0
        with pytest.raises(ValueError):
            si_coefficient(-1.0, 0.1)
        with pytest.raises(ValueError):
            si_coefficient(1.0, 0.1, theta=-1.0)

    def test_identity_at_zero_coeff(self, grid):
        v = np.random.default_rng(0).random(grid.shape)
        coeff = si_coefficient(2.0, 0.1, theta=0.0)
        assert np.array_equal(implicit_matvec(v, grid, coeff, 0.1), v)

    def test_spd_on_interior(self, grid):
        rng = np.random.default_rng(1)
        i = grid.interior()
        coeff = si_coefficient(0.7, 0.1)
        for _ in range(3):
            v = np.zeros(grid.shape)
            v[i] = rng.standard_normal(v[i].shape)
            av = implicit_matvec(v, grid, coeff, 0.1)
            assert np.vdot(v[i], av[i]) > 0

    def test_diagonal_positive(self, grid):
        assert np.all(jacobi_diagonal(grid, si_coefficient(0.7, 0.1), 0.1) >= 1.0)

    def test_wave_speed_estimate(self, grid):
        state = initialize(grid, PhysicsParams())
        c = max_wave_speed(state, grid, PhysicsParams())
        # must exceed the sound speed (Alfven speed adds on top)
        assert c > np.sqrt(PhysicsParams().gamma)


class TestStabilization:
    def test_si_damps_super_cfl_noise(self):
        """At 2.5x the CFL step the explicit run develops large spurious
        velocities; the semi-implicit operator keeps them near physical."""
        probe = MasModel(
            ModelConfig(shape=(10, 8, 12), pcg_iters=3, sts_stages=3,
                        extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        dt = 2.5 * probe.compute_dt()
        explicit = make(False, dt)
        si = make(True, dt)
        assert si.diagnostics()["max_vr"] < 0.5 * explicit.diagnostics()["max_vr"]
        si.states[0].assert_finite()

    def test_si_negligible_at_small_dt(self):
        """As dt -> 0 the operator is ~identity: solutions converge."""
        probe = MasModel(
            ModelConfig(shape=(10, 8, 12), pcg_iters=3, sts_stages=3,
                        extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        dt = 0.1 * probe.compute_dt()
        a = make(False, dt, steps=3)
        b = make(True, dt, steps=3)
        diff = np.abs(a.states[0].vr - b.states[0].vr).max()
        assert diff < 5e-4

    def test_si_adds_solver_kernels(self):
        dt = 0.01
        cfg = dict(shape=(10, 8, 12), pcg_iters=3, sts_stages=3,
                   extra_model_arrays=0, fixed_dt=dt)
        off = MasModel(ModelConfig(**cfg), runtime_config_for(CodeVersion.A))
        on = MasModel(ModelConfig(**cfg, semi_implicit=True),
                      runtime_config_for(CodeVersion.A))
        t_off = off.step()
        t_on = on.step()
        assert t_on.launches > t_off.launches
        assert t_on.wall > t_off.wall

    def test_theta_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(si_theta=-0.5)
