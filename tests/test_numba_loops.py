"""The numba backend's factorization loops, with or without numba.

:func:`loops_backend` assembles the same kernel set ``make_numba_backend``
registers.  Without numba its loops run as pure Python, so this file
validates the algorithm on every CI leg and the compiled loops on the
leg that installs numba.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.backends.conformance import run_conformance
from repro.kernels.backends.numba_backend import geqrt_numba, loops_backend, tsqrt_numba

#: A column whose sum of squares (4.8e-322) underflows to a denormal.
TINY = 2.2e-161


def test_loops_pass_conformance():
    report = run_conformance([loops_backend()], end_to_end=False)
    assert report.passed, report.to_text()
    underflow = [c for c in report.cases if c.config.startswith("underflow")]
    assert {c.kernel for c in underflow} == {"GEQRT", "TSQRT"}


@pytest.mark.parametrize(
    "factor, args",
    [
        (geqrt_numba, (np.array([[0.0, 1.0], [TINY, 1.0]]),)),
        (tsqrt_numba, (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[TINY, 1.0]]))),
    ],
    ids=["geqrt", "tsqrt"],
)
def test_underflowing_column_stays_orthogonal(factor, args):
    f = factor(*args)
    q = f.q_dense()
    np.testing.assert_allclose(q.T @ q, np.eye(len(q)), atol=1e-15)
    # The eliminated entry's norm lands in R's diagonal, unscaled.
    assert abs(f.r[0, 0]) == pytest.approx(TINY, rel=1e-15)
