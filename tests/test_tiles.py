"""Tests for tile partitioning and the TiledMatrix container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError, TilingError
from repro.tiles import Partition, TiledMatrix, partition_extent


class TestPartition:
    def test_exact_division(self):
        p = Partition(64, 16)
        assert p.num_tiles == 4
        assert p.is_exact
        assert p.padded_extent == 64

    def test_ragged_last_tile(self):
        p = Partition(50, 16)
        assert p.num_tiles == 4
        assert not p.is_exact
        assert p.padded_extent == 64
        assert p.tile_span(3) == (48, 50)

    def test_tile_span_interior(self):
        p = Partition(64, 16)
        assert p.tile_span(1) == (16, 32)

    def test_tile_span_out_of_range(self):
        p = Partition(32, 16)
        with pytest.raises(TilingError):
            p.tile_span(2)
        with pytest.raises(TilingError):
            p.tile_span(-1)

    def test_single_tile(self):
        p = Partition(5, 16)
        assert p.num_tiles == 1
        assert p.tile_span(0) == (0, 5)

    def test_invalid_extent(self):
        with pytest.raises(TilingError):
            Partition(0, 16)

    def test_invalid_tile_size(self):
        with pytest.raises(Exception):
            Partition(16, 0)

    def test_partition_extent_helper(self):
        assert partition_extent(33, 16).num_tiles == 3

    @given(st.integers(1, 500), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_property_spans_cover_exactly(self, extent, b):
        p = Partition(extent, b)
        covered = 0
        prev_stop = 0
        for i in range(p.num_tiles):
            start, stop = p.tile_span(i)
            assert start == prev_stop
            assert stop > start
            covered += stop - start
            prev_stop = stop
        assert covered == extent


class TestTiledMatrix:
    def test_roundtrip_exact(self, rng):
        a = rng.standard_normal((64, 48))
        t = TiledMatrix.from_dense(a, 16)
        assert t.grid_shape == (4, 3)
        np.testing.assert_array_equal(t.to_dense(), a)

    def test_roundtrip_padded(self, rng):
        a = rng.standard_normal((50, 30))
        t = TiledMatrix.from_dense(a, 16)
        assert t.grid_shape == (4, 2)
        np.testing.assert_array_equal(t.to_dense(), a)

    def test_padding_is_zero(self, rng):
        a = rng.standard_normal((20, 20))
        t = TiledMatrix.from_dense(a, 16)
        last = t.tile(1, 1)
        assert np.allclose(last[4:, :], 0.0)
        assert np.allclose(last[:, 4:], 0.0)

    def test_tiles_are_owned_copies(self, rng):
        a = rng.standard_normal((32, 32))
        t = TiledMatrix.from_dense(a, 16)
        t.tile(0, 0)[0, 0] = 999.0
        assert a[0, 0] != 999.0

    def test_identity(self):
        t = TiledMatrix.identity(40, 16)
        np.testing.assert_array_equal(t.to_dense(), np.eye(40))

    def test_zeros_shape(self):
        t = TiledMatrix.zeros(30, 20, 8)
        assert t.shape == (30, 20)
        assert np.allclose(t.to_dense(), 0.0)

    def test_random_reproducible(self):
        t1 = TiledMatrix.random(32, 32, 16, seed=5)
        t2 = TiledMatrix.random(32, 32, 16, seed=5)
        np.testing.assert_array_equal(t1.to_dense(), t2.to_dense())

    def test_set_tile_and_copy(self, rng):
        t = TiledMatrix.zeros(32, 32, 16)
        block = rng.standard_normal((16, 16))
        t.set_tile(1, 0, block)
        np.testing.assert_array_equal(t.tile(1, 0), block)
        c = t.copy()
        c.tile(1, 0)[0, 0] = -1.0
        assert t.tile(1, 0)[0, 0] == block[0, 0]

    def test_set_tile_shape_check(self):
        t = TiledMatrix.zeros(32, 32, 16)
        with pytest.raises(ShapeError):
            t.set_tile(0, 0, np.zeros((8, 8)))

    def test_tile_out_of_range(self):
        t = TiledMatrix.zeros(32, 32, 16)
        # negative indices included: a bare list index would accept -1
        for i, j in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
            with pytest.raises(TilingError):
                t.tile(i, j)

    def test_column_tiles(self, rng):
        t = TiledMatrix.from_dense(rng.standard_normal((48, 48)), 16)
        col = t.column_tiles(1)
        assert len(col) == 3
        np.testing.assert_array_equal(col[2], t.tile(2, 1))
        with pytest.raises(TilingError):
            t.column_tiles(5)

    def test_iter_tiles_order(self):
        t = TiledMatrix.zeros(32, 48, 16)
        coords = [(i, j) for i, j, _ in t.iter_tiles()]
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_tile_bytes(self):
        t = TiledMatrix.zeros(32, 32, 16, dtype=np.float64)
        assert t.tile_bytes() == 16 * 16 * 8
        assert t.tile_bytes(element_size=4) == 16 * 16 * 4

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            TiledMatrix.from_dense(np.zeros(5), 4)

    def test_integer_input_promoted(self):
        t = TiledMatrix.from_dense(np.arange(16).reshape(4, 4), 2)
        assert t.dtype.kind == "f"

    @given(
        st.integers(1, 80),
        st.integers(1, 80),
        st.integers(1, 20),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_dense_roundtrip(self, rows, cols, b, seed):
        a = np.random.default_rng(seed).standard_normal((rows, cols))
        t = TiledMatrix.from_dense(a, b)
        np.testing.assert_array_equal(t.to_dense(), a)


class TestTranspose:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((50, 34))
        t = TiledMatrix.from_dense(a, 16)
        tt = t.transpose()
        assert tt.shape == (34, 50)
        np.testing.assert_array_equal(tt.to_dense(), a.T)
        np.testing.assert_array_equal(tt.transpose().to_dense(), a)

    def test_grid_shape_swaps(self, rng):
        t = TiledMatrix.from_dense(rng.standard_normal((48, 32)), 16)
        assert t.transpose().grid_shape == (2, 3)

    def test_tiles_are_copies(self, rng):
        t = TiledMatrix.from_dense(rng.standard_normal((32, 32)), 16)
        tt = t.transpose()
        tt.tile(0, 0)[0, 0] = 123.0
        assert t.tile(0, 0)[0, 0] != 123.0
