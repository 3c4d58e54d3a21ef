"""State containers, initial conditions, boundary conditions."""

import numpy as np
import pytest

from repro.mas.boundary import (
    BoundaryClasses,
    BoundaryProfiles,
    apply_boundaries,
    apply_centered_boundary,
)
from repro.mas.constants import PhysicsParams
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.initial import dipole_faces, initialize, stratified_atmosphere, wind_seed
from repro.mas.operators import div_face
from repro.mas.state import ALL_FIELDS, MhdState
from repro.mpi.decomp import Decomposition3D


@pytest.fixture(scope="module")
def setup():
    g = SphericalGrid.build((10, 8, 12))
    dec = Decomposition3D(g.shape, 1)
    grid = LocalGrid.from_global(g, dec, 0, ghost=1)
    return g, dec, grid


class TestState:
    def test_allocate_shapes(self, setup):
        _, _, grid = setup
        s = MhdState.allocate(grid)
        assert s.rho.shape == grid.shape
        assert s.br.shape == grid.face_shape(0)
        assert s.bt.shape == grid.face_shape(1)
        assert s.bp.shape == grid.face_shape(2)

    def test_copy_is_deep(self, setup):
        _, _, grid = setup
        s = MhdState.allocate(grid)
        c = s.copy()
        c.rho[2, 2, 2] = 5.0
        assert s.rho[2, 2, 2] == 0.0

    def test_get_unknown_field(self, setup):
        _, _, grid = setup
        with pytest.raises(KeyError):
            MhdState.allocate(grid).get("nope")

    def test_nbytes(self, setup):
        _, _, grid = setup
        s = MhdState.allocate(grid)
        assert s.nbytes() == sum(s.get(n).nbytes for n in ALL_FIELDS)

    def test_assert_finite(self, setup):
        _, _, grid = setup
        s = MhdState.allocate(grid)
        s.assert_finite()
        s.temp[3, 3, 3] = np.nan
        with pytest.raises(FloatingPointError, match="temp"):
            s.assert_finite()


class TestInitialConditions:
    def test_dipole_divergence_free(self, setup):
        _, _, grid = setup
        br, bt, bp = dipole_faces(grid)
        assert np.abs(div_face(br, bt, bp, grid)).max() / np.abs(br).max() < 1e-13

    def test_dipole_moment_scales(self, setup):
        _, _, grid = setup
        b1 = dipole_faces(grid, 1.0)[0]
        b2 = dipole_faces(grid, 2.0)[0]
        assert np.allclose(b2, 2 * b1)

    def test_atmosphere_decreases_outward(self, setup):
        _, _, grid = setup
        rho, temp = stratified_atmosphere(grid, PhysicsParams())
        assert rho[1, 0, 0] > rho[-2, 0, 0]
        assert np.allclose(temp, 1.0)

    def test_wind_zero_at_surface(self, setup):
        _, _, grid = setup
        v = wind_seed(grid)
        # profile ~ (1 - 1/r): negative only in the sub-surface ghost
        assert np.all(v[1:] >= 0)
        assert v[-1, 0, 0] > v[1, 0, 0]

    def test_initialize_full_state(self, setup):
        _, _, grid = setup
        s = initialize(grid, PhysicsParams())
        s.assert_finite()
        assert np.all(s.rho > 0)
        assert np.all(s.temp > 0)


class TestBoundaries:
    def make(self, setup):
        """Rank 0's state as a group of one, with its boundary classes."""
        _, dec, grid = setup
        s = initialize(grid, PhysicsParams())
        classes = BoundaryClasses.of(dec, (0,))
        return classes, s, BoundaryProfiles.capture(s, classes)

    def test_inner_r_dirichlet(self, setup):
        classes, s, prof = self.make(setup)
        s.rho[0] = -99.0
        apply_boundaries(s, classes, prof)
        # theta-ghost corners are re-mirrored after the Dirichlet fill
        assert np.array_equal(s.rho[0][1:-1], prof.rho_inner[1:-1])
        assert np.array_equal(s.temp[0][1:-1], prof.temp_inner[1:-1])

    def test_inner_r_no_slip(self, setup):
        classes, s, prof = self.make(setup)
        s.vr[1] = 0.5
        apply_boundaries(s, classes, prof)
        assert np.allclose(s.vr[0][1:-1], -0.5)

    def test_outer_r_zero_gradient_no_inflow(self, setup):
        classes, s, prof = self.make(setup)
        s.vr[-2] = -0.3  # inflow attempt
        s.rho[-2] = 0.7
        apply_boundaries(s, classes, prof)
        assert np.allclose(s.rho[-1], 0.7)
        assert np.all(s.vr[-1] >= 0.0)  # inflow clipped

    def test_theta_reflective_vt_antisymmetric(self, setup):
        classes, s, prof = self.make(setup)
        s.vt[:, 1] = 0.2
        s.rho[:, 1] = 3.0
        apply_boundaries(s, classes, prof)
        # interior r rows only: the (r-ghost, theta-ghost) corners are
        # double-reflected by the r BC running first
        assert np.allclose(s.vt[1:-1, 0], -0.2)
        assert np.allclose(s.rho[1:-1, 0], 3.0)

    def test_ghost_depth_enforced(self, setup):
        g, dec, _ = setup
        grid2 = LocalGrid.from_global(g, dec, 0, ghost=2)
        with pytest.raises(ValueError, match="one ghost layer"):
            BoundaryClasses.of(dec, (0,), ghost=grid2.ghost)

    def test_interior_rank_untouched(self):
        """A rank owning no global boundary gets no BC writes."""
        g = SphericalGrid.build((12, 8, 12))
        dec = Decomposition3D(g.shape, 3, dims=(3, 1, 1))
        grid = LocalGrid.from_global(g, dec, 1, ghost=1)
        s = initialize(grid, PhysicsParams())
        classes = BoundaryClasses.of(dec, (1,))
        prof = BoundaryProfiles.capture(s, classes)
        assert classes[:2] == (None, None) and prof == (None, None)
        s.rho[0] = 7.0
        s.rho[-1] = 8.0
        apply_boundaries(s, classes, prof)
        assert np.allclose(s.rho[0], 7.0)
        assert np.allclose(s.rho[-1], 8.0)

    def test_work_array_boundary(self, setup):
        _, dec, grid = setup
        a = np.zeros(grid.shape)
        a[1] = 1.0
        a[-2] = 2.0
        a[:, 1] = 3.0
        apply_centered_boundary(a, BoundaryClasses.of(dec, (0,)))
        assert np.allclose(a[:, 0], a[:, 1])
        assert np.allclose(a[-1], a[-2])

    def test_work_array_antisymmetric(self, setup):
        _, dec, grid = setup
        a = np.ones(grid.shape)
        apply_centered_boundary(a, BoundaryClasses.of(dec, (0,)), antisymmetric_theta=True)
        assert np.allclose(a[:, 0], -a[:, 1])
