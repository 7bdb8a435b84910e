"""PLASMA's tile factorizations as LAPACK (>= 3.4) ships them.

``?geqrt`` is GEQRT, and ``?tpqrt`` is TSQRT with ``l = 0`` and TTQRT
with ``l = n`` (Buttari et al., arXiv:0707.3548).  Both use this
package's representation ``Q = I - V T V^T`` with ``V = [I; V2]``.  They
are called through ctypes in the OpenBLAS NumPy already loaded (the
loader is :func:`repro.runtime.blas._symbols`); ctypes releases the GIL
for the call, so threaded workers factor concurrently.

Every call uses ``nb = n``, so ``T`` is the whole ``n x n`` compact-WY
factor the update kernels, the factor log and checkpoints expect.  Each
function returns ``None`` when the routine is missing or the dtype is
not float32/float64; the caller then runs its Python loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError

_PREFIX = {np.dtype(np.float64): "d", np.dtype(np.float32): "s"}


def _routine(dtype: np.dtype, name: str):
    """The bound ``?<name>`` routine for ``dtype``, or ``None``."""
    from ..runtime import blas  # the runtime package imports the kernels

    syms = blas._symbols()
    prefix = _PREFIX.get(dtype)
    if syms is None or prefix is None:
        return None
    return syms.lapack.get(prefix + name)


def geqrt(a: np.ndarray, dtype: np.dtype):
    """``?geqrt`` of an ``m x n`` tile (``m >= n >= 1``).

    Returns ``(rv, t)`` or ``None``: ``rv`` is a Fortran-order copy of
    ``a`` holding R on and above its diagonal and V's strictly lower part
    below it; ``t`` is the ``n x n`` upper-triangular factor.
    """
    fn = _routine(dtype, "geqrt")
    if fn is None:
        return None
    m, n = a.shape
    rv = np.array(a, dtype=dtype, order="F")
    t = np.zeros((n, n), dtype=dtype, order="F")
    work = np.empty(n * n, dtype=dtype)
    # M, N, NB, LDA, LDT, INFO
    ints = np.array([m, n, n, m, n, 0], dtype=np.int64)
    p = ints.ctypes.data
    fn(p, p + 8, p + 16, rv.ctypes.data, p + 24, t.ctypes.data, p + 32,
       work.ctypes.data, p + 40)
    _check("geqrt", ints[-1])
    return rv, t


def tpqrt(r1: np.ndarray, a2: np.ndarray, l: int, dtype: np.dtype):
    """``?tpqrt`` of the ``n x n`` triangle ``r1`` over the ``m x n``
    tile ``a2`` whose last ``l`` rows are upper trapezoidal (``m >= 1``).

    Returns ``(r, v2, t)`` or ``None``: Fortran-order copies of ``r1``
    (R on and above the diagonal, the rest untouched) and of ``a2``
    (overwritten with V2), and the ``n x n`` factor.
    """
    fn = _routine(dtype, "tpqrt")
    if fn is None:
        return None
    m, n = a2.shape
    r = np.array(r1, dtype=dtype, order="F")
    v2 = np.array(a2, dtype=dtype, order="F")
    t = np.zeros((n, n), dtype=dtype, order="F")
    work = np.empty(n * n, dtype=dtype)
    # M, N, L, NB, LDA, LDB, LDT, INFO
    ints = np.array([m, n, l, n, n, m, n, 0], dtype=np.int64)
    p = ints.ctypes.data
    fn(p, p + 8, p + 16, p + 24, r.ctypes.data, p + 32, v2.ctypes.data, p + 40,
       t.ctypes.data, p + 48, work.ctypes.data, p + 56)
    _check("tpqrt", ints[-1])
    return r, v2, t


def _check(name: str, info) -> None:
    if info != 0:  # only an illegal argument sets it: a bug here
        raise KernelError(f"LAPACK ?{name} rejected argument {-int(info)}")
