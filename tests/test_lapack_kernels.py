"""GEQRT/TSQRT/TTQRT through LAPACK's ``?geqrt``/``?tpqrt`` against the
Python loops they replace, which run with the OpenBLAS loader patched out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import geqrt, tsqrt, ttqrt
from repro.kernels.backends.conformance import tolerance_for
from repro.runtime import blas

pytestmark = pytest.mark.skipif(
    blas._symbols() is None or len(blas._symbols().lapack) < 4,
    reason="NumPy's OpenBLAS does not export ?geqrt/?tpqrt",
)

TILE_SIZES = (1, 2, 16, 64, 128)
#: A column whose sum of squares (4.8e-322) underflows to a denormal.
TINY = 2.2e-161


def _factors(f):
    arrays = [f.r, f.tf, f.taus]
    return arrays + [f.v if hasattr(f, "v") else f.v2]


def _both(monkeypatch, kernel, *args):
    """``(lapack, loops)``: the kernel's factors with and without LAPACK."""
    fast = kernel(*args)
    with monkeypatch.context() as m:
        m.setattr(blas, "_symbols", lambda: None)
        slow = kernel(*args)
    return fast, slow


def _assert_agree(fast, slow, atol=1e-12):
    for got, want in zip(_factors(fast), _factors(slow)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def _orthogonality(f) -> float:
    q = f.q_dense()
    return float(np.abs(q.T @ q - np.eye(len(q))).max())


def _triangle(rng, b, dtype=np.float64):
    return geqrt(rng.standard_normal((b, b)).astype(dtype)).r


@pytest.mark.parametrize("b", TILE_SIZES)
class TestAgainstLoops:
    def test_geqrt_square_and_tall(self, monkeypatch, rng, b):
        for m in (b, b + 7):
            fast, slow = _both(monkeypatch, geqrt, rng.standard_normal((m, b)))
            _assert_agree(fast, slow)
            assert not np.any(np.tril(fast.r, -1))
            assert np.array_equal(np.diag(fast.v), np.ones(b))

    def test_tsqrt_full_and_ragged_bottom(self, monkeypatch, rng, b):
        for m2 in sorted({b, max(1, b // 3), b + 5}):
            r1 = _triangle(rng, b)
            fast, slow = _both(monkeypatch, tsqrt, r1, rng.standard_normal((m2, b)))
            _assert_agree(fast, slow)
            assert fast.kind == "TS"

    def test_ttqrt(self, monkeypatch, rng, b):
        # Garbage below r2's diagonal must not reach the factors.
        r2 = _triangle(rng, b) + np.tril(rng.standard_normal((b, b)), -1)
        fast, slow = _both(monkeypatch, ttqrt, _triangle(rng, b), r2)
        _assert_agree(fast, slow)
        assert fast.kind == "TT"
        assert not np.any(np.tril(fast.v2, -1))

    def test_float32_keeps_its_dtype(self, monkeypatch, rng, b):
        a = rng.standard_normal((b, b)).astype(np.float32)
        r1 = _triangle(rng, b, np.float32)
        bottom = rng.standard_normal((b, b)).astype(np.float32)
        for kernel, args in ((geqrt, (a,)), (tsqrt, (r1, bottom)), (ttqrt, (r1, np.triu(bottom)))):
            fast, slow = _both(monkeypatch, kernel, *args)
            _assert_agree(fast, slow, atol=tolerance_for(np.float32))
            assert all(x.dtype == np.float32 for x in _factors(fast))


class TestEdgeColumns:
    def test_zero_column(self, monkeypatch, rng):
        a = rng.standard_normal((16, 16))
        a[:, 3] = 0.0
        fast, slow = _both(monkeypatch, geqrt, a)
        _assert_agree(fast, slow)
        r1 = _triangle(rng, 16)
        r1[3, 3] = 0.0
        bottom = rng.standard_normal((16, 16))
        bottom[:, 0] = 0.0
        for kernel, args in ((tsqrt, (r1, bottom)), (ttqrt, (r1, np.triu(bottom)))):
            fast, slow = _both(monkeypatch, kernel, *args)
            _assert_agree(fast, slow)
            assert fast.taus[0] == 0.0

    @pytest.mark.parametrize(
        "kernel, args",
        [
            (geqrt, (np.array([[0.0, 1.0], [TINY, 1.0]]),)),
            (tsqrt, (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[TINY, 1.0]]))),
            (ttqrt, (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[TINY, 1.0], [0.0, 1.0]]))),
        ],
        ids=["geqrt", "tsqrt", "ttqrt"],
    )
    def test_underflowing_column(self, monkeypatch, kernel, args):
        fast, slow = _both(monkeypatch, kernel, *args)
        _assert_agree(fast, slow)
        assert _orthogonality(fast) <= 1e-12
        assert abs(fast.r[0, 0]) == pytest.approx(TINY, rel=1e-15)
