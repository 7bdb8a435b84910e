"""Tests for elementary Householder reflectors and the dense reference QR."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError
from repro.kernels.householder import (
    HouseholderReflector,
    apply_reflector,
    householder_qr,
    make_reflector,
)


def vectors(min_size=1, max_size=40):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
        min_size=min_size,
        max_size=max_size,
    ).map(np.array)


class TestMakeReflector:
    def test_annihilates_tail(self):
        x = np.array([3.0, 4.0])
        r = make_reflector(x)
        hx = r.matrix() @ x
        assert abs(hx[0]) == pytest.approx(5.0)
        assert abs(hx[1]) < 1e-12

    def test_beta_magnitude_is_norm(self):
        x = np.array([1.0, 2.0, 2.0])
        r = make_reflector(x)
        assert abs(r.beta) == pytest.approx(3.0)

    def test_beta_sign_opposes_head(self):
        r = make_reflector(np.array([2.0, 1.0]))
        assert r.beta < 0
        r = make_reflector(np.array([-2.0, 1.0]))
        assert r.beta > 0

    def test_unit_head(self):
        r = make_reflector(np.array([5.0, 1.0, -2.0]))
        assert r.v[0] == 1.0

    def test_zero_tail_gives_identity(self):
        r = make_reflector(np.array([7.0, 0.0, 0.0]))
        assert r.tau == 0.0
        assert r.beta == 7.0

    def test_single_element(self):
        r = make_reflector(np.array([42.0]))
        assert r.tau == 0.0
        assert r.beta == 42.0

    def test_all_zero_vector(self):
        r = make_reflector(np.zeros(4))
        assert r.tau == 0.0
        assert r.beta == 0.0

    def test_zero_head_nonzero_tail(self):
        x = np.array([0.0, 3.0, 4.0])
        r = make_reflector(x)
        hx = r.matrix() @ x
        assert abs(hx[0]) == pytest.approx(5.0)
        assert np.linalg.norm(hx[1:]) < 1e-12

    def test_rejects_2d_input(self):
        with pytest.raises(KernelError):
            make_reflector(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(KernelError):
            make_reflector(np.array([]))

    def test_integer_input_promoted(self):
        r = make_reflector(np.array([3, 4]))
        assert r.v.dtype.kind == "f"

    def test_underflowing_norm_stays_orthogonal(self):
        # ||x||^2 underflows to a denormal; without rescaling, H H^T was
        # off identity by 3.8e-4.
        x = np.array([0.0, 2.2e-161])
        r = make_reflector(x)
        h = r.matrix()
        np.testing.assert_allclose(h @ h.T, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(h @ x, [r.beta, 0.0], rtol=0, atol=1e-14 * 2.2e-161)
        assert abs(r.beta) == pytest.approx(2.2e-161, rel=1e-14)

    @given(vectors(min_size=2, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_property_reflection(self, x):
        r = make_reflector(x)
        h = r.matrix()
        hx = h @ x
        # Householder matrices are orthogonal and symmetric.
        np.testing.assert_allclose(h @ h.T, np.eye(len(x)), atol=1e-8)
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        # Tail annihilated, norm preserved.
        scale = max(np.linalg.norm(x), 1.0)
        assert np.linalg.norm(hx[1:]) <= 1e-8 * scale
        assert np.linalg.norm(hx) == pytest.approx(np.linalg.norm(x), rel=1e-8, abs=1e-12)


class TestApplyReflector:
    def test_matches_dense_multiply(self, rng):
        x = rng.standard_normal(8)
        r = make_reflector(x)
        c = rng.standard_normal((8, 5))
        expected = r.matrix() @ c
        got = apply_reflector(r, c.copy())
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_in_place(self, rng):
        r = make_reflector(rng.standard_normal(6))
        c = rng.standard_normal((6, 3))
        out = apply_reflector(r, c)
        assert out is c

    def test_identity_when_tau_zero(self, rng):
        r = HouseholderReflector(v=np.array([1.0, 0.0]), tau=0.0, beta=1.0)
        c = rng.standard_normal((2, 2))
        before = c.copy()
        apply_reflector(r, c)
        np.testing.assert_array_equal(c, before)

    def test_shape_mismatch_raises(self, rng):
        r = make_reflector(rng.standard_normal(4))
        with pytest.raises(KernelError):
            apply_reflector(r, rng.standard_normal((5, 2)))


class TestHouseholderQR:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 5), (16, 16), (20, 3), (1, 1)])
    def test_reconstruction(self, rng, shape):
        a = rng.standard_normal(shape)
        q, r = householder_qr(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-10)
        np.testing.assert_allclose(q.T @ q, np.eye(shape[0]), atol=1e-10)
        assert np.allclose(np.tril(r, -1), 0.0)

    def test_rejects_wide_matrix(self, rng):
        with pytest.raises(KernelError):
            householder_qr(rng.standard_normal((3, 5)))

    def test_rejects_1d(self):
        with pytest.raises(KernelError):
            householder_qr(np.zeros(4))

    def test_matches_numpy_r_up_to_sign(self, rng):
        a = rng.standard_normal((12, 12))
        _q, r = householder_qr(a)
        r_np = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(np.abs(np.diag(r)), np.abs(np.diag(r_np)), rtol=1e-10)

    def test_singular_matrix_still_factors(self):
        a = np.ones((6, 6))
        q, r = householder_qr(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-10)

    @given(st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_square_qr(self, n, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        q, r = householder_qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-9 * max(np.linalg.norm(a), 1.0)
