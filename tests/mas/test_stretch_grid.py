"""Mesh spacing generators and spherical grid geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mas.grid import LocalGrid, SphericalGrid
from repro.mas.stretch import geometric_spacing, uniform_spacing
from repro.mpi.decomp import Decomposition3D


class TestSpacing:
    def test_uniform_endpoints_and_count(self):
        e = uniform_spacing(1.0, 2.5, 10)
        assert e.size == 11
        assert e[0] == 1.0 and e[-1] == 2.5

    def test_geometric_growth(self):
        e = geometric_spacing(1.0, 2.5, 20, ratio=1.1)
        w = np.diff(e)
        assert np.all(w[1:] > w[:-1])
        assert np.allclose(w[1:] / w[:-1], 1.1)

    def test_geometric_ratio_one_is_uniform(self):
        assert np.allclose(
            geometric_spacing(0, 1, 8, 1.0), uniform_spacing(0, 1, 8)
        )

    def test_geometric_exact_endpoints(self):
        e = geometric_spacing(1.0, 2.5, 33, ratio=1.07)
        assert e[-1] == 2.5

    @pytest.mark.parametrize("fn,args", [
        (uniform_spacing, (1.0, 0.5, 4)),
        (uniform_spacing, (0.0, 1.0, 0)),
        (geometric_spacing, (0.0, 1.0, 4, -1.0)),
    ])
    def test_validation(self, fn, args):
        with pytest.raises((ValueError, TypeError)):
            fn(*args)

    @given(
        st.integers(2, 64),
        st.floats(min_value=1.0, max_value=1.2),
    )
    def test_geometric_partition_property(self, n, ratio):
        e = geometric_spacing(1.0, 2.5, n, ratio)
        assert e.size == n + 1
        assert np.all(np.diff(e) > 0)
        assert e[0] == 1.0 and e[-1] == 2.5


class TestSphericalGrid:
    def test_build_shape(self):
        g = SphericalGrid.build((16, 12, 24))
        assert g.shape == (16, 12, 24)

    def test_pole_cutout_enforced(self):
        with pytest.raises(ValueError, match="polar cutout"):
            SphericalGrid(
                r_edges=np.linspace(1, 2, 5),
                t_edges=np.linspace(0.0, np.pi, 5),
                p_edges=np.linspace(0, 2 * np.pi, 5),
            )

    def test_phi_must_be_full_circle(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            SphericalGrid(
                r_edges=np.linspace(1, 2, 5),
                t_edges=np.linspace(0.2, np.pi - 0.2, 5),
                p_edges=np.linspace(0, np.pi, 5),
            )

    def test_monotone_edges_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SphericalGrid(
                r_edges=np.array([1.0, 1.5, 1.2, 2.0]),
                t_edges=np.linspace(0.2, np.pi - 0.2, 4),
                p_edges=np.linspace(0, 2 * np.pi, 4),
            )


class TestLocalGrid:
    @pytest.fixture(scope="class")
    def setup(self):
        g = SphericalGrid.build((16, 12, 24))
        dec = Decomposition3D(g.shape, 4)
        return g, dec

    def test_volumes_tile_the_shell(self, setup):
        g, dec = setup
        total = sum(
            LocalGrid.from_global(g, dec, r).volume[
                LocalGrid.from_global(g, dec, r).interior()
            ].sum()
            for r in dec.iter_ranks()
        )
        analytic = (
            (2.5**3 - 1.0) / 3.0
            * (np.cos(0.15) - np.cos(np.pi - 0.15))
            * 2 * np.pi
        )
        assert total == pytest.approx(analytic, rel=1e-12)

    def test_ghost_coordinates_continuous(self, setup):
        g, dec = setup
        lg = LocalGrid.from_global(g, dec, 0, ghost=2)
        assert np.all(np.diff(lg.re) > 0)
        assert np.all(np.diff(lg.te) > 0)
        assert np.all(np.diff(lg.pe) > 0)

    def test_interior_matches_decomp(self, setup):
        g, dec = setup
        for r in dec.iter_ranks():
            lg = LocalGrid.from_global(g, dec, r)
            assert lg.interior_shape == dec.local_shape(r)
            i = lg.interior()
            spatial = tuple(s for s in i if isinstance(s, slice))
            assert tuple(s.stop - s.start for s in spatial) == dec.local_shape(r)

    def test_face_shapes(self, setup):
        g, dec = setup
        lg = LocalGrid.from_global(g, dec, 0)
        nrg, ntg, npg = lg.shape
        assert lg.face_shape(0) == (nrg + 1, ntg, npg)
        assert lg.face_shape(1) == (nrg, ntg + 1, npg)
        assert lg.face_shape(2) == (nrg, ntg, npg + 1)

    def test_metric_shapes_consistent(self, setup):
        g, dec = setup
        lg = LocalGrid.from_global(g, dec, 0)
        assert lg.volume.shape == lg.shape
        assert lg.area_r.shape == lg.face_shape(0)
        assert lg.area_t.shape == lg.face_shape(1)
        assert lg.area_p.shape == lg.face_shape(2)
        nrg, ntg, npg = lg.shape
        len_r, len_t, len_p = lg.group.edge_lengths
        assert len_r.shape == (1, 1, nrg, ntg + 1, npg + 1)
        assert len_t.shape == (1, 1, nrg + 1, ntg, npg + 1)
        assert len_p.shape == (1, 1, nrg + 1, ntg + 1, npg)

    def test_interior_metrics_positive(self, setup):
        """Ghost-rim metrics near the theta cutout may go unphysical (the
        mirrored ghost edge can cross theta=0); only interior metrics are
        ever consumed by the operators."""
        g, dec = setup
        lg = LocalGrid.from_global(g, dec, 0)
        i = lg.interior()
        assert np.all(lg.volume[i] > 0)
        assert np.all(lg.area_r[lg.face_interior(0)] > 0)
        assert np.all(lg.area_t[lg.face_interior(1)] > 0)
        assert np.all(lg.area_p[lg.face_interior(2)] > 0)

    def test_shape_mismatch_rejected(self, setup):
        g, _ = setup
        bad = Decomposition3D((8, 8, 8), 1)
        with pytest.raises(ValueError, match="decomposition shape"):
            LocalGrid.from_global(g, bad, 0)

    def test_min_cell_extent_positive(self, setup):
        g, dec = setup
        assert LocalGrid.from_global(g, dec, 0).min_cell_extent > 0

    def test_periodic_phi_ghost_widths_wrap(self):
        g = SphericalGrid.build((8, 8, 16))
        dec = Decomposition3D(g.shape, 1)
        lg = LocalGrid.from_global(g, dec, 0, ghost=1)
        # phi is uniform so ghost width equals interior width
        assert lg.dp[0] == pytest.approx(lg.dp[1])
