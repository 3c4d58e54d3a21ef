"""Domain decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.mpi.decomp import Decomposition3D, dims_create, split_extent


def slab(dec, rank):
    """The slices selecting ``rank``'s block out of a global array."""
    return tuple(slice(lo, hi) for lo, hi in dec.bounds(rank))


class TestDimsCreate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 16, 64])
    def test_product_is_nranks(self, n):
        dims = dims_create(n)
        assert dims[0] * dims[1] * dims[2] == n

    def test_weights_bias_heavy_axis(self):
        dims = dims_create(8, weights=(1.0, 1.0, 100.0))
        assert dims[2] == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            dims_create(0)
        with pytest.raises(ValueError):
            dims_create(4, weights=(1.0,))
        with pytest.raises(ValueError):
            dims_create(4, 3, weights=(1.0, -1.0, 1.0))

    @given(st.integers(min_value=1, max_value=32))
    def test_balanced(self, n):
        dims = dims_create(n)
        # no factor should exceed n itself; product invariant
        assert max(dims) <= n
        assert dims[0] * dims[1] * dims[2] == n


class TestSplitExtent:
    def test_even(self):
        assert split_extent(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spread(self):
        parts = split_extent(10, 3)
        sizes = [hi - lo for lo, hi in parts]
        assert sizes == [4, 3, 3]
        assert parts[-1][1] == 10

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            split_extent(2, 3)

    @given(st.integers(1, 200), st.integers(1, 16))
    def test_partition_property(self, n, parts):
        if n < parts:
            return
        pieces = split_extent(n, parts)
        assert pieces[0][0] == 0 and pieces[-1][1] == n
        for (a0, a1), (b0, b1) in zip(pieces, pieces[1:]):
            assert a1 == b0
        assert max(hi - lo for lo, hi in pieces) - min(hi - lo for lo, hi in pieces) <= 1


class TestDecomposition:
    def test_coords_roundtrip(self):
        dec = Decomposition3D((16, 16, 32), 8)
        for r in dec.iter_ranks():
            assert dec.rank_of(dec.coords(r)) == r

    def test_blocks_tile_grid(self):
        dec = Decomposition3D((9, 7, 12), 6)
        seen = set()
        for r in dec.iter_ranks():
            b = dec.bounds(r)
            for i in range(*b[0]):
                for j in range(*b[1]):
                    for k in range(*b[2]):
                        assert (i, j, k) not in seen
                        seen.add((i, j, k))
        assert len(seen) == 9 * 7 * 12

    def test_phi_periodic_neighbor(self):
        dec = Decomposition3D((8, 8, 16), 4, dims=(1, 1, 4))
        assert dec.neighbor(0, 2, -1) == 3  # wraps
        assert dec.neighbor(3, 2, 1) == 0

    def test_r_not_periodic(self):
        dec = Decomposition3D((8, 8, 16), 4, dims=(4, 1, 1))
        assert dec.neighbor(0, 0, -1) is None
        assert dec.neighbor(3, 0, 1) is None

    def test_single_rank_periodic_self(self):
        dec = Decomposition3D((8, 8, 16), 1)
        assert dec.neighbor(0, 2, -1) == 0
        # this self-link is why 1-GPU runs still show MPI time (Fig. 3)
        assert dec.neighbor(0, 2, 1) == 0

    def test_neighbors_count(self):
        dec = Decomposition3D((8, 8, 16), 8, dims=(2, 2, 2))
        faces = [dec.neighbor(0, a, d) for a in range(3) for d in (-1, 1)]
        assert sum(nb is not None for nb in faces) == 4  # +r, +t, two phi (periodic)

    def test_face_cells(self):
        dec = Decomposition3D((8, 8, 16), 1)
        assert dec.face_cells(0, 2) == 8 * 8

    def test_balance(self):
        dec = Decomposition3D((8, 8, 16), 4)
        cells = [dec.local_cells(r) for r in dec.iter_ranks()]
        assert max(cells) == min(cells)

    def test_dims_must_multiply(self):
        with pytest.raises(ValueError):
            Decomposition3D((8, 8, 8), 4, dims=(3, 1, 1))

    def test_extent_hosting(self):
        with pytest.raises(ValueError):
            Decomposition3D((2, 8, 8), 8, dims=(4, 2, 1))

    def test_local_cells_sum(self):
        dec = Decomposition3D((10, 11, 13), 6)
        assert sum(dec.local_cells(r) for r in dec.iter_ranks()) == 10 * 11 * 13

    @pytest.mark.parametrize("rank", [-1, 6, 7])
    def test_a_rank_out_of_range_has_no_block(self, rank):
        """The tables are indexed by rank; -1 must not read the last row."""
        dec = Decomposition3D((10, 11, 13), 6)
        for query in (dec.bounds, dec.local_shape, dec.local_cells):
            with pytest.raises(IndexError, match="out of range"):
                query(rank)
        with pytest.raises(IndexError):
            dec.face_cells(rank, 0)

    def test_the_tables_are_the_split_extents(self):
        dec = Decomposition3D((10, 11, 13), 6)
        for r in dec.iter_ranks():
            coords = zip(dec.global_shape, dec.dims, dec.coords(r))
            want = tuple(split_extent(n, p)[c] for n, p, c in coords)
            assert dec.bounds(r) == want
            assert dec.local_shape(r) == tuple(hi - lo for lo, hi in want)
