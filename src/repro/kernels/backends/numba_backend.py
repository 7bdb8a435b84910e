"""The ``numba`` backend: jitted factorization loops, graceful absence.

The factorization kernels (GEQRT/TSQRT/TTQRT) are interpreter-bound at
small tile sizes — per-column Python loops over ``b <= 32`` tiles spend
more time in bytecode dispatch than in arithmetic.  This backend
compiles those loops with :func:`numba.njit`.  The update kernels are
already single BLAS-3 calls, so they delegate to the reference
implementations — jitting them would only re-implement the GEMM.

Graceful degradation contract: when numba is not importable,
:func:`make_numba_backend` returns ``None`` and nothing is registered —
importing the package never fails for lack of the optional compiler.
The ``@_njit`` decorator then degrades to identity, which keeps every
kernel body executable as pure Python: :func:`loops_backend` assembles
the same kernel set either way, and ``tests/test_numba_loops.py`` runs
it through the conformance harness, so a numba-less CI leg still
validates the backend's *algorithm* (the with-numba leg validates the
compiled artifact).

Numerics: the loops mirror the LAPACK ``larfg`` convention of
:func:`repro.kernels.householder.make_reflector` exactly (including its
rescale of underflowing columns), but accumulate
dot products sequentially where NumPy uses (possibly pairwise/SIMD) BLAS
reductions.  Results therefore agree with the reference to rounding
(``~1e-15`` relative; the conformance bound is ``1e-12``) but not
bitwise — the backend declares ``bit_exact=False``.
"""

from __future__ import annotations

import math

import numpy as np

from ..geqrt import GEQRTResult
from ..tsqrt import TSQRTResult
from ..tsmqr import tsmqr as _ref_tsmqr
from ..ttmqr import ttmqr as _ref_ttmqr
from ..unmqr import unmqr as _ref_unmqr
from ..batched import (
    tsmqr_batch as _ref_tsmqr_batch,
    ttmqr_batch as _ref_ttmqr_batch,
    unmqr_batch as _ref_unmqr_batch,
)
from ...errors import KernelError

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _numba_njit

    HAVE_NUMBA = True
except Exception:  # ImportError, or a broken install
    _numba_njit = None
    HAVE_NUMBA = False


def _njit(fn):
    """``numba.njit(cache=True)`` when available, identity otherwise."""
    if HAVE_NUMBA:  # pragma: no cover - requires numba installed
        return _numba_njit(cache=True)(fn)
    return fn


# -- jitted (or pure-Python) kernel bodies ----------------------------------
# float64 only, plain loops and math.* — the numba-supported subset.

#: LAPACK's safe minimum / eps for float64, as in ``make_reflector``.
_SAFMIN = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


@_njit
def _underflow_scale(alpha, col, j, i0, i1, sigma):
    """``(scale, sigma)`` for the reflector of ``[alpha; col[i0:i1, j]]``.

    When the plain sum of squares ``sigma`` fell below ``_SAFMIN`` it lost
    digits to underflow; as LAPACK's ``dlarfg`` does, the vector is then
    rescaled to ``max|x| = 1`` and ``sigma`` recomputed.  Otherwise the
    scale is 1 and ``sigma`` passes through.
    """
    if sigma >= _SAFMIN:
        return 1.0, sigma
    scale = abs(alpha)
    for i in range(i0, i1):
        scale = max(scale, abs(col[i, j]))
    if scale == 0.0:
        return 1.0, sigma
    sigma = 0.0
    for i in range(i0, i1):
        x = col[i, j] / scale
        sigma += x * x
    return scale, sigma


@_njit
def _geqrt_loop(r, v, taus):
    """In-place unblocked Householder QR of ``r``; fills ``v``/``taus``.

    Mirrors ``_factor_panel`` + ``make_reflector`` (larfg convention:
    ``beta = -copysign(||x||, x0)``, ``v[0] = 1``,
    ``tau = (beta - x0)/beta``, underflow rescale).
    """
    m, n = r.shape
    for k in range(n):
        if k == m - 1:
            v[k, k] = 1.0
            taus[k] = 0.0
            continue
        alpha = r[k, k]
        sigma = 0.0
        for i in range(k + 1, m):
            sigma += r[i, k] * r[i, k]
        scale, sigma = _underflow_scale(alpha, r, k, k + 1, m, sigma)
        v[k, k] = 1.0
        if sigma == 0.0:
            taus[k] = 0.0
            continue
        head = alpha / scale
        norm_x = math.hypot(head, math.sqrt(sigma))
        beta = -norm_x if head >= 0.0 else norm_x
        denom = head - beta
        for i in range(k + 1, m):
            v[i, k] = r[i, k] / scale / denom
        tau = (beta - head) / beta
        taus[k] = tau
        r[k, k] = beta * scale
        for i in range(k + 1, m):
            r[i, k] = 0.0
        for j in range(k + 1, n):
            w = r[k, j]
            for i in range(k + 1, m):
                w += v[i, k] * r[i, j]
            w *= tau
            r[k, j] -= w
            for i in range(k + 1, m):
                r[i, j] -= v[i, k] * w
    return r


@_njit
def _t_factor_loop(v, taus):
    """Compact-WY ``Tf`` from explicit vectors (LAPACK ``larft``)."""
    m, k = v.shape
    tf = np.zeros((k, k), dtype=v.dtype)
    for i in range(k):
        tau = taus[i]
        tf[i, i] = tau
        if i > 0 and tau != 0.0:
            g = np.empty(i, dtype=v.dtype)
            for p in range(i):
                acc = 0.0
                for r in range(m):
                    acc += v[r, p] * v[r, i]
                g[p] = acc
            for p in range(i):
                acc = 0.0
                for q in range(p, i):
                    acc += tf[p, q] * g[q]
                tf[p, i] = -tau * acc
    return tf


@_njit
def _tsqrt_loop(r, bot, v2, taus, triangular_bottom):
    """Stacked ``[R1; A2]`` elimination loop (TS and TT variants)."""
    b = r.shape[1]
    m2 = bot.shape[0]
    for k in range(b):
        rows = min(k + 1, m2) if triangular_bottom else m2
        alpha = r[k, k]
        sigma = 0.0
        for i in range(rows):
            sigma += bot[i, k] * bot[i, k]
        scale, sigma = _underflow_scale(alpha, bot, k, 0, rows, sigma)
        if sigma == 0.0:
            taus[k] = 0.0
            for i in range(rows):
                bot[i, k] = 0.0
            continue
        head = alpha / scale
        norm_x = math.hypot(head, math.sqrt(sigma))
        beta = -norm_x if head >= 0.0 else norm_x
        denom = head - beta
        tau = (beta - head) / beta
        taus[k] = tau
        for i in range(rows):
            v2[i, k] = bot[i, k] / scale / denom
            bot[i, k] = 0.0
        r[k, k] = beta * scale
        for j in range(k + 1, b):
            w = r[k, j]
            for i in range(rows):
                w += v2[i, k] * bot[i, j]
            w *= tau
            r[k, j] -= w
            for i in range(rows):
                bot[i, j] -= v2[i, k] * w
    return r


@_njit
def _t_factor_stacked_loop(v2, taus):
    """``Tf`` for the structured ``V = [I; V2]`` stack.

    The identity block contributes ``delta(p, i)`` to the Gram matrix,
    which vanishes for the strictly-upper entries the recurrence reads.
    """
    m2, b = v2.shape
    tf = np.zeros((b, b), dtype=v2.dtype)
    for i in range(b):
        tau = taus[i]
        tf[i, i] = tau
        if i > 0 and tau != 0.0:
            g = np.empty(i, dtype=v2.dtype)
            for p in range(i):
                acc = 0.0
                for r in range(m2):
                    acc += v2[r, p] * v2[r, i]
                g[p] = acc
            for p in range(i):
                acc = 0.0
                for q in range(p, i):
                    acc += tf[p, q] * g[q]
                tf[p, i] = -tau * acc
    return tf


# -- python wrappers --------------------------------------------------------


def geqrt_numba(a: np.ndarray, inner_block: int | None = None) -> GEQRTResult:
    """Jitted GEQRT; non-float64 inputs delegate to the reference kernel.

    ``inner_block`` is validated for contract parity but otherwise
    ignored: the compiled loop is unblocked (compilation removes the
    interpreter overhead panel-blocking works around).
    """
    from .reference import REFERENCE_BACKEND

    a = np.asarray(a)
    if a.ndim != 2:
        raise KernelError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise KernelError(f"geqrt requires m >= n, got shape {a.shape}")
    if inner_block is not None and inner_block < 1:
        raise KernelError(f"inner_block must be >= 1, got {inner_block}")
    if a.dtype != np.float64:
        return REFERENCE_BACKEND.geqrt(a, inner_block)
    r = np.array(a, dtype=np.float64, order="C", copy=True)
    v = np.zeros((m, n), dtype=np.float64)
    taus = np.zeros(n, dtype=np.float64)
    _geqrt_loop(r, v, taus)
    tf = _t_factor_loop(v, taus)
    return GEQRTResult(r=r, v=v, tf=tf, taus=taus)


def _stacked_numba(r1: np.ndarray, a2: np.ndarray, triangular_bottom: bool) -> TSQRTResult:
    from .reference import REFERENCE_BACKEND

    r1 = np.asarray(r1)
    a2 = np.asarray(a2)
    if r1.ndim != 2 or r1.shape[0] != r1.shape[1]:
        raise KernelError(f"top tile must be square, got shape {r1.shape}")
    if a2.ndim != 2 or a2.shape[1] != r1.shape[1]:
        raise KernelError(
            f"bottom tile of shape {a2.shape} incompatible with top tile {r1.shape}"
        )
    if triangular_bottom and a2.shape[0] != a2.shape[1]:
        raise KernelError(f"TT elimination needs a square bottom tile, got {a2.shape}")
    if r1.dtype != np.float64 or a2.dtype != np.float64:
        ref = REFERENCE_BACKEND.ttqrt if triangular_bottom else REFERENCE_BACKEND.tsqrt
        return ref(r1, a2)
    b = r1.shape[1]
    m2 = a2.shape[0]
    r = np.array(r1, dtype=np.float64, order="C", copy=True)
    # Same contract as the reference TT kernel: only the upper triangle
    # of a triangular bottom tile is data.
    bot = np.array(
        np.triu(a2) if triangular_bottom else a2,
        dtype=np.float64, order="C", copy=True,
    )
    v2 = np.zeros((m2, b), dtype=np.float64)
    taus = np.zeros(b, dtype=np.float64)
    _tsqrt_loop(r, bot, v2, taus, triangular_bottom)
    tf = _t_factor_stacked_loop(v2, taus)
    return TSQRTResult(
        r=r, v2=v2, tf=tf, taus=taus, kind="TT" if triangular_bottom else "TS"
    )


def tsqrt_numba(r1: np.ndarray, a2: np.ndarray) -> TSQRTResult:
    """Jitted TSQRT (see :func:`repro.kernels.tsqrt`)."""
    return _stacked_numba(r1, a2, triangular_bottom=False)


def ttqrt_numba(r1: np.ndarray, r2: np.ndarray) -> TSQRTResult:
    """Jitted TTQRT (see :func:`repro.kernels.ttqrt`)."""
    return _stacked_numba(r1, r2, triangular_bottom=True)


def loops_backend():
    """This module's kernel set as a backend, whether or not numba imports.

    The factorization loops are jitted when numba is present and run as
    pure Python otherwise (``compiled`` says which); updates are the
    reference BLAS kernels.  Tests run it through the conformance harness
    on both CI legs.
    """
    from . import FunctionBackend

    return FunctionBackend(
        name="numba",
        description="numba-jitted factorization loops; BLAS updates",
        geqrt=geqrt_numba,
        tsqrt=tsqrt_numba,
        ttqrt=ttqrt_numba,
        unmqr=_ref_unmqr,
        tsmqr=_ref_tsmqr,
        ttmqr=_ref_ttmqr,
        unmqr_batch=_ref_unmqr_batch,
        tsmqr_batch=_ref_tsmqr_batch,
        ttmqr_batch=_ref_ttmqr_batch,
        compiled=HAVE_NUMBA,
        bit_exact=False,
    )


def make_numba_backend():
    """The ``numba`` backend, or ``None`` when numba is not importable."""
    return loops_backend() if HAVE_NUMBA else None
