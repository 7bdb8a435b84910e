"""Kernel edge cases: degenerate tiles, ragged boundaries, odd memory.

These tests pin the *absolute* behaviour of the kernels: a 1x1 tile is a scalar
Householder step, a boundary tile with fewer rows than the tile edge
still eliminates cleanly, non-contiguous views factor like their
contiguous copies, and float32 inputs stay float32 end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    Workspace,
    check_orthogonality,
    check_reconstruction,
    geqrt,
    tsmqr,
    tsqrt,
    unmqr,
)
from repro.runtime.serial import SerialRuntime
from tests.strategies import random_tile, random_triangular


class TestOneByOneTiles:
    """b=1 degenerates every kernel to scalar arithmetic; it must hold."""

    def test_geqrt_scalar(self):
        f = geqrt(np.array([[-3.0]]))
        assert f.r.shape == (1, 1)
        assert abs(f.r[0, 0]) == pytest.approx(3.0)
        q = f.q_dense()
        np.testing.assert_allclose(q @ f.r, [[-3.0]], atol=1e-14)

    def test_tsqrt_scalar_pair(self):
        f = tsqrt(np.array([[3.0]]), np.array([[4.0]]))
        # Eliminating 4 into 3 is a 2-D rotation: |r| = 5.
        assert abs(f.r[0, 0]) == pytest.approx(5.0)
        c1, c2 = np.array([[3.0]]), np.array([[4.0]])
        tsmqr(f, c1, c2)
        assert c2[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert abs(c1[0, 0]) == pytest.approx(5.0)

    def test_unmqr_scalar_identity_when_tau_zero(self):
        f = geqrt(np.array([[2.0]]))
        c = np.array([[7.0, -1.0]])
        out = unmqr(f, c.copy())
        # Q is +-1; applying it twice round-trips.
        back = unmqr(f, out.copy(), transpose=False)
        np.testing.assert_allclose(back, c, atol=1e-14)

    def test_full_factorization_at_b1(self):
        a = random_tile(5, (6, 6))
        fact = SerialRuntime().factorize(a.copy(), tile_size=1)
        check_reconstruction(a, fact.q_dense(), fact.r_dense())
        check_orthogonality(fact.q_dense())


class TestRaggedBoundaries:
    """Tile edges >= remaining rows/cols at the matrix boundary."""

    def test_tsqrt_short_bottom_tile(self):
        rng = np.random.default_rng(11)
        b = 8
        r1 = random_triangular(rng, b)
        a2 = rng.standard_normal((3, b))  # boundary tile: 3 rows < b
        f = tsqrt(r1, a2)
        q = f.q_dense()
        stacked = np.vstack([r1, a2])
        rebuilt = q @ np.vstack([f.r, np.zeros((3, b))])
        np.testing.assert_allclose(rebuilt, stacked, atol=1e-10)

    def test_geqrt_single_row(self):
        a = np.array([[2.0]])
        f = geqrt(a)
        assert f.tile_shape == (1, 1)

    @pytest.mark.parametrize("n", [1, 7, 17, 33])
    def test_tile_size_at_least_matrix_size(self, n):
        # b >= m collapses the grid to a single tile; the runtime must
        # behave exactly like one dense QR.
        a = random_tile(n, (n, n))
        fact = SerialRuntime().factorize(a.copy(), tile_size=max(n, 8))
        check_reconstruction(a, fact.q_dense(), fact.r_dense())

    @pytest.mark.parametrize("shape", [(33, 33), (49, 33), (65, 17)])
    def test_indivisible_sizes(self, shape):
        a = random_tile(hash(shape) % 1000, shape)
        fact = SerialRuntime().factorize(a.copy(), tile_size=16)
        check_reconstruction(a, fact.q_dense(), fact.r_dense())


class TestNonContiguousInputs:
    """Strided views must factor exactly like their contiguous copies."""

    def test_geqrt_on_strided_view(self):
        base = random_tile(21, (16, 16))
        view = base[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        f_view = geqrt(view)
        f_copy = geqrt(np.ascontiguousarray(view))
        np.testing.assert_array_equal(f_view.r, f_copy.r)
        np.testing.assert_array_equal(f_view.v, f_copy.v)

    def test_tsqrt_on_transposed_view(self):
        rng = np.random.default_rng(31)
        r1 = np.asfortranarray(random_triangular(rng, 8))
        a2 = rng.standard_normal((8, 8)).T
        assert not a2.flags["C_CONTIGUOUS"]
        f = tsqrt(r1, a2)
        f_ref = tsqrt(np.ascontiguousarray(r1), np.ascontiguousarray(a2))
        np.testing.assert_array_equal(f.r, f_ref.r)

    def test_unmqr_updates_strided_target_in_place(self):
        rng = np.random.default_rng(41)
        b = 8
        f = geqrt(rng.standard_normal((b, b)))
        base = rng.standard_normal((b, 12))
        view = base[:, ::2]  # update every other column in place
        expected = np.ascontiguousarray(view)
        unmqr(f, expected, workspace=Workspace())
        untouched = base[:, 1::2].copy()
        unmqr(f, view, workspace=Workspace())
        np.testing.assert_allclose(view, expected, atol=1e-13)
        np.testing.assert_array_equal(base[:, 1::2], untouched)

    def test_factorize_fortran_ordered_matrix(self):
        a = np.asfortranarray(random_tile(51, (48, 48)))
        ref = SerialRuntime().factorize(np.ascontiguousarray(a), tile_size=16)
        got = SerialRuntime().factorize(a, tile_size=16)
        np.testing.assert_array_equal(got.r_dense(), ref.r_dense())


class TestFloat32:
    """float32 flows through without silent upcasts to float64."""

    def test_geqrt_preserves_dtype(self):
        a = random_tile(61, (12, 12), np.float32)
        f = geqrt(a)
        assert f.r.dtype == np.float32
        assert f.v.dtype == np.float32
        assert f.tf.dtype == np.float32
        q = f.q_dense()
        np.testing.assert_allclose(q @ f.r, a, atol=1e-4)

    def test_tsqrt_preserves_dtype_and_eliminates(self):
        rng = np.random.default_rng(71)
        b = 8
        r1 = random_triangular(rng, b, np.float32)
        a2 = random_tile(rng, (b, b), np.float32)
        f = tsqrt(r1, a2)
        assert f.r.dtype == np.float32
        c1, c2 = r1.copy(), a2.copy()
        tsmqr(f, c1, c2, workspace=Workspace())
        scale = max(float(np.linalg.norm(np.vstack([r1, a2]))), 1.0)
        assert float(np.linalg.norm(c2)) <= 1e-4 * scale
