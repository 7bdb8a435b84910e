"""TSMQR — the *update for elimination* kernel (paper Sec. II-B step 4).

After TSQRT/TTQRT eliminates a tile pair, every tile pair to the right in
the same two tile rows must be hit with the pair's orthogonal factor
(Eq. 9).  With ``V = [I; V2]`` the block-reflector application decomposes
into three small GEMMs:

    W  = C1 + V2^T C2
    W' = op(Tf) W
    C1 -= W'
    C2 -= V2 W'

with ``op(Tf)`` taken block by block for LAPACK's block-T.  This single
routine serves both the TS and TT kinds (TTMQR in
:mod:`repro.kernels.ttmqr` is a thin structured wrapper).
float32/float64 pairs go to LAPACK's ``?tpmqrt``
(:mod:`repro.kernels.lapack`); the GEMMs above are the fallback without
it, for mixed dtypes and for non-unit-stride rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import KernelError
from . import lapack
from .blockreflector import check_t, t_blocks
from .workspace import Workspace, thread_workspace

if TYPE_CHECKING:
    from .tsqrt import TSQRTResult


def tsmqr(
    factors: TSQRTResult,
    c1: np.ndarray,
    c2: np.ndarray,
    transpose: bool = True,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a TSQRT/TTQRT orthogonal factor to a stacked tile pair.

    Parameters
    ----------
    factors:
        Output of :func:`repro.kernels.tsqrt` or :func:`repro.kernels.ttqrt`.
    c1:
        ``(b, n)`` tile in the diagonal tile's row.  Updated in place.
        ``n`` may span several stacked tiles — this routine *is* the
        batched kernel when handed a row panel.
    c2:
        ``(m2, n)`` tile in the eliminated tile's row.  Updated in place.
    transpose:
        ``True`` (default) applies ``Q^T`` (factorization direction),
        ``False`` applies ``Q`` (Q-building direction).
    workspace:
        Scratch arena for LAPACK's ``WORK`` and argument blocks, or the
        three GEMMs; the caller's thread-local default when omitted, so
        nothing is heap-allocated per call on the hot path.

    Returns
    -------
    tuple
        ``(c1, c2)`` — the same arrays, updated.
    """
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    ws = workspace if workspace is not None else thread_workspace()
    if lapack.prepared(factors, transpose, ws, c1, c2):
        return c1, c2
    v2 = factors.v2
    b = v2.shape[1]
    if c1.ndim != 2 or c1.shape[0] != b:
        raise KernelError(f"c1 must have {b} rows, got shape {c1.shape}")
    if c2.ndim != 2 or c2.shape[0] != v2.shape[0]:
        raise KernelError(f"c2 must have {v2.shape[0]} rows, got shape {c2.shape}")
    if c1.shape[1] != c2.shape[1]:
        raise KernelError(
            f"c1/c2 column counts differ: {c1.shape[1]} vs {c2.shape[1]}"
        )
    check_t(factors.tf, b)
    if lapack.tpmqrt(factors, c1, c2, transpose, ws):
        return c1, c2
    tf = factors.tf
    if c1.dtype != c2.dtype or v2.dtype != c1.dtype or tf.dtype != c1.dtype:
        # Mixed dtypes (tests only): matmul-out scratch would mismatch
        # the promoted result dtype, so fall back to allocating GEMMs.
        # Counted so the hot path can prove it never lands here.
        ws.note_fallback()
        for j0, j1, t in t_blocks(tf, transpose):
            vj = v2[:, j0:j1]
            w = t @ (c1[j0:j1] + vj.T @ c2)
            c1[j0:j1] -= w
            c2 -= vj @ w
        return c1, c2
    n = c1.shape[1]
    for j0, j1, t in t_blocks(tf, transpose):
        vj, top = v2[:, j0:j1], c1[j0:j1]
        w = ws.temp("tsmqr.w", (j1 - j0, n), c1.dtype)
        np.matmul(vj.T, c2, out=w)
        w += top
        w2 = ws.temp("tsmqr.w2", (j1 - j0, n), c1.dtype)
        np.matmul(t, w, out=w2)
        np.subtract(top, w2, out=top)
        vw = ws.temp("tsmqr.vw", c2.shape, c2.dtype)
        np.matmul(vj, w2, out=vw)
        np.subtract(c2, vw, out=c2)
    return c1, c2
