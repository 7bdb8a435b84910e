"""Tests for the GEQRT (triangulation) and UNMQR (update) kernels."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import KernelError
from repro.kernels import geqrt, unmqr
from tests.strategies import random_tile, seeds, tile_sizes


class TestGEQRT:
    @pytest.mark.parametrize("b", [1, 2, 4, 8, 16, 17, 32])
    def test_square_reconstruction(self, rng, b):
        a = rng.standard_normal((b, b))
        f = geqrt(a)
        q = f.q_dense()
        np.testing.assert_allclose(q @ f.r, a, atol=1e-10 * max(b, 1))
        np.testing.assert_allclose(q.T @ q, np.eye(b), atol=1e-10 * max(b, 1))

    def test_rectangular_tall(self, rng):
        a = rng.standard_normal((20, 8))
        f = geqrt(a)
        np.testing.assert_allclose(f.q_dense() @ f.r, a, atol=1e-10)

    def test_r_upper_triangular_exact_zeros(self, rng):
        f = geqrt(rng.standard_normal((8, 8)))
        assert not np.any(np.tril(f.r, -1))

    def test_v_unit_lower(self, rng):
        f = geqrt(rng.standard_normal((8, 8)))
        np.testing.assert_array_equal(np.diag(f.v), np.ones(8))
        assert np.allclose(np.triu(f.v, 1), 0.0)

    def test_input_not_modified(self, rng):
        a = rng.standard_normal((8, 8))
        before = a.copy()
        geqrt(a)
        np.testing.assert_array_equal(a, before)

    def test_rejects_wide(self, rng):
        with pytest.raises(KernelError):
            geqrt(rng.standard_normal((4, 6)))

    def test_rejects_1d(self):
        with pytest.raises(KernelError):
            geqrt(np.zeros(5))

    def test_diagonal_matrix(self):
        a = np.diag([3.0, -2.0, 5.0])
        f = geqrt(a)
        np.testing.assert_allclose(np.abs(np.diag(f.r)), [3.0, 2.0, 5.0], atol=1e-12)

    def test_zero_tile(self):
        f = geqrt(np.zeros((6, 6)))
        assert np.allclose(f.r, 0.0)
        assert np.allclose(f.taus, 0.0)

    def test_tile_shape_property(self, rng):
        f = geqrt(rng.standard_normal((10, 4)))
        assert f.tile_shape == (10, 4)

    @given(tile_sizes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_property_orthogonal_factor(self, b, seed):
        a = random_tile(seed, (b, b))
        f = geqrt(a)
        q = f.q_dense()
        assert np.linalg.norm(q.T @ q - np.eye(b)) < 1e-9 * b


class TestUNMQR:
    def test_applies_qt(self, rng):
        a = rng.standard_normal((16, 16))
        f = geqrt(a)
        c = a.copy()
        unmqr(f, c)
        # Q^T A == R by construction.
        np.testing.assert_allclose(c, f.r, atol=1e-10)

    def test_forward_inverse_pair(self, rng):
        f = geqrt(rng.standard_normal((8, 8)))
        c0 = rng.standard_normal((8, 5))
        c = c0.copy()
        unmqr(f, c, transpose=True)
        unmqr(f, c, transpose=False)
        np.testing.assert_allclose(c, c0, atol=1e-10)

    def test_in_place_and_returned(self, rng):
        f = geqrt(rng.standard_normal((6, 6)))
        c = rng.standard_normal((6, 6))
        assert unmqr(f, c) is c

    def test_rectangular_target(self, rng):
        f = geqrt(rng.standard_normal((8, 8)))
        c = rng.standard_normal((8, 3))
        expected = f.q_dense().T @ c
        np.testing.assert_allclose(unmqr(f, c.copy()), expected, atol=1e-10)

    def test_row_mismatch_raises(self, rng):
        f = geqrt(rng.standard_normal((8, 8)))
        with pytest.raises(KernelError):
            unmqr(f, rng.standard_normal((7, 3)))


@pytest.mark.usefixtures("python_loops")
class TestBlockedGEQRT:
    """The Python loop's panel-blocked variant must be bit-compatible
    with its unblocked one (LAPACK's ``?geqrt`` is patched out)."""

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (96, 64), (50, 33)])
    def test_identical_factors(self, rng, shape):
        a = rng.standard_normal(shape)
        unblocked = geqrt(a, inner_block=1)
        blocked = geqrt(a, inner_block=16)
        np.testing.assert_allclose(blocked.r, unblocked.r, atol=1e-12)
        np.testing.assert_allclose(blocked.v, unblocked.v, atol=1e-12)
        np.testing.assert_allclose(blocked.taus, unblocked.taus, atol=1e-12)

    def test_auto_threshold(self, rng):
        # Narrow tiles stay unblocked, wide ones block; both correct.
        for b in (16, 128):
            a = rng.standard_normal((b, b))
            f = geqrt(a)
            q = f.q_dense()
            assert np.linalg.norm(q @ f.r - a) < 1e-9 * b

    def test_odd_panel_sizes(self, rng):
        a = rng.standard_normal((70, 70))
        f = geqrt(a, inner_block=13)
        np.testing.assert_allclose(f.r, geqrt(a, inner_block=1).r, atol=1e-12)

    def test_invalid_inner_block(self, rng):
        with pytest.raises(KernelError):
            geqrt(rng.standard_normal((8, 8)), inner_block=0)
