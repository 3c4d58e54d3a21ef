"""Field-line tracing against the analytic dipole topology."""

import numpy as np
import pytest

from repro.mas.constants import PhysicsParams
from examples.fieldlines import (
    FieldLineFate,
    FieldLineTracer,
    dipole_open_boundary_colatitude,
)
from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.initial import initialize
from repro.mpi.decomp import Decomposition3D


@pytest.fixture(scope="module")
def tracer():
    g = SphericalGrid.build((24, 24, 16))
    grid = LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)
    state = initialize(grid, PhysicsParams(), perturbation=0.0)
    return FieldLineTracer(grid, state), grid


class TestDipoleTopology:
    def test_equatorial_footpoint_closes(self, tracer):
        tr, _ = tracer
        fate = tr.classify_footpoint(np.pi / 2, 0.3)
        assert fate is FieldLineFate.CLOSED

    def test_polar_footpoint_opens(self, tracer):
        tr, grid = tracer
        fate = tr.classify_footpoint(grid.te[1] + 0.03, 0.3)
        assert fate is FieldLineFate.OPEN

    def test_open_closed_boundary_near_analytic(self, tracer):
        """The transition colatitude must sit near arcsin(sqrt(1/r_max))."""
        tr, _ = tracer
        analytic = dipole_open_boundary_colatitude(2.5)
        thetas = np.linspace(tr.t_lo + 0.02, np.pi / 2, 40)
        fates = [tr.classify_footpoint(t, 0.0) for t in thetas]
        # first closed footpoint marks the measured boundary
        idx = next(i for i, f in enumerate(fates) if f is FieldLineFate.CLOSED)
        measured = thetas[idx]
        assert measured == pytest.approx(analytic, abs=0.12)

    def test_closed_line_apex_matches_dipole(self, tracer):
        """A dipole line from theta0 peaks at r = 1/sin^2(theta0)."""
        tr, _ = tracer
        theta0 = 1.25  # comfortably closed
        line = tr.trace(tr.r_lo + 1e-3, theta0, 0.0, direction=+1)
        if line.fate is not FieldLineFate.CLOSED:
            line = tr.trace(tr.r_lo + 1e-3, theta0, 0.0, direction=-1)
        assert line.fate is FieldLineFate.CLOSED
        assert line.max_r == pytest.approx(1.0 / np.sin(theta0) ** 2, rel=0.1)

    def test_closed_line_lands_at_conjugate_point(self, tracer):
        """Dipole lines close at the mirrored colatitude."""
        tr, _ = tracer
        theta0 = 1.2
        line = tr.trace(tr.r_lo + 1e-3, theta0, 0.0, direction=+1)
        if line.fate is not FieldLineFate.CLOSED:
            line = tr.trace(tr.r_lo + 1e-3, theta0, 0.0, direction=-1)
        end_theta = line.points[-1, 1]
        assert end_theta == pytest.approx(np.pi - theta0, abs=0.1)

    def test_axisymmetric_line_stays_in_plane(self, tracer):
        tr, _ = tracer
        line = tr.trace(tr.r_lo + 1e-3, 1.2, 1.0, direction=+1)
        assert np.allclose(line.points[:, 2], 1.0, atol=1e-8)


class TestOpenFluxMap:
    def test_polar_caps_open_equator_closed(self, tracer):
        tr, _ = tracer
        m = tr.open_flux_map(n_theta=12, n_phi=4)
        assert m[0].all() and m[-1].all()       # both polar caps open
        mid = m.shape[0] // 2
        assert not m[mid].any()                  # equatorial belt closed

    def test_map_shape(self, tracer):
        tr, _ = tracer
        assert tr.open_flux_map(n_theta=6, n_phi=3).shape == (6, 3)


class TestTracerMechanics:
    def test_line_properties(self, tracer):
        tr, _ = tracer
        line = tr.trace(1.5, 1.2, 0.0)
        assert line.points.shape[1] == 3
        assert line.length > 0
        assert line.max_r >= 1.5

    def test_validation(self, tracer):
        tr, _ = tracer
        with pytest.raises(ValueError):
            tr.trace(1.5, 1.2, 0.0, direction=0)
        with pytest.raises(ValueError):
            tr.trace(1.5, 1.2, 0.0, step=-0.1)
        with pytest.raises(ValueError):
            dipole_open_boundary_colatitude(0.9)

    def test_zero_field_stalls(self):
        g = SphericalGrid.build((8, 8, 8))
        grid = LocalGrid.from_global(g, Decomposition3D(g.shape, 1), 0, ghost=1)
        state = initialize(grid, PhysicsParams(), b0=0.0, perturbation=0.0)
        tr = FieldLineTracer(grid, state)
        assert tr.trace(1.5, 1.2, 0.0).fate is FieldLineFate.STALLED
