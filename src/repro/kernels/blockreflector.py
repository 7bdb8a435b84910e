"""Compact-WY block reflector accumulation and application.

Given Householder vectors ``V = [v_1 | ... | v_k]`` and scalars ``tau_i``,
the product of the elementary reflectors is

    H_1 H_2 ... H_k  =  I - V @ Tf @ V.T

with ``Tf`` upper triangular (LAPACK ``larft`` with direction 'F', storage
'C').  Applying the transpose swaps ``Tf`` for ``Tf.T`` (``larfb``).

These are the NumPy forms: the Python factorization loops build ``Tf``
here, and the update kernels apply it here when LAPACK's ``?gemqrt``
cannot (:mod:`repro.kernels.lapack`).
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .workspace import Workspace, thread_workspace


def build_t_factor(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Accumulate the upper-triangular ``Tf`` factor (LAPACK ``larft``).

    Parameters
    ----------
    v:
        ``(m, k)`` matrix whose columns are the Householder vectors
        (including their unit heads — callers pass V with ``v[i, i] == 1``
        and zeros above, or the structured TS/TT equivalents).
    taus:
        Length-``k`` reflector scalars.

    Returns
    -------
    numpy.ndarray
        ``(k, k)`` upper-triangular ``Tf`` with ``Tf[i, i] == taus[i]``.

    Notes
    -----
    Recurrence: ``Tf[:i, i] = -tau_i * Tf[:i, :i] @ (V[:, :i].T @ V[:, i])``.
    """
    v = np.asarray(v)
    taus = np.asarray(taus, dtype=v.dtype)
    if v.ndim != 2:
        raise KernelError(f"V must be 2-D, got ndim={v.ndim}")
    k = v.shape[1]
    if taus.shape != (k,):
        raise KernelError(f"taus must have shape ({k},), got {taus.shape}")
    tf = np.zeros((k, k), dtype=v.dtype)
    if k == 0:
        return tf
    # V^T V once (upper part used); cheaper than k GEMVs for tile sizes.
    gram = v.T @ v
    for i in range(k):
        tau = taus[i]
        tf[i, i] = tau
        if i and tau != 0.0:
            tf[:i, i] = -tau * (tf[:i, :i] @ gram[:i, i])
    return tf


def apply_block_reflector(
    v: np.ndarray,
    tf: np.ndarray,
    c: np.ndarray,
    transpose: bool,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Apply ``Q = I - V Tf V.T`` (or its transpose) to ``C`` from the left.

    ``C`` is updated in place and returned.  ``C`` may be arbitrarily
    wide — this is the batched-update primitive: one call over a
    horizontally stacked tile panel is the same three GEMMs as one call
    per tile, just wider.

    Parameters
    ----------
    v:
        ``(m, k)`` Householder vectors.
    tf:
        ``(k, k)`` upper-triangular compact-WY factor, or LAPACK's
        ``(nb, k)`` block-T (:mod:`repro.kernels.lapack`).  With
        ``nb < k``, ``Q`` is applied block by block, each block of
        ``nb`` reflectors skipping the rows above its first one, where
        a unit-lower-trapezoidal ``V`` (GEQRT's) is zero.
    c:
        ``(m, n)`` target block.
    transpose:
        ``True`` applies ``Q.T`` (factorization direction); ``False``
        applies ``Q`` (Q-building direction).
    workspace:
        Scratch arena for the three products; the caller's thread-local
        default when omitted.  All GEMMs run through
        ``np.matmul(..., out=)`` so the hot path performs no per-call
        allocation.
    """
    v = np.asarray(v)
    c = np.asarray(c)
    if c.ndim != 2 or v.ndim != 2 or c.shape[0] != v.shape[0]:
        raise KernelError(
            f"incompatible shapes for block reflector: V {v.shape}, C {c.shape}"
        )
    check_t(tf, v.shape[1])
    ws = workspace if workspace is not None else thread_workspace()
    mixed = v.dtype != c.dtype or tf.dtype != c.dtype
    if mixed:
        # Mixed dtypes would make matmul's result dtype differ from the
        # scratch; rare (tests only), so take the allocating path.
        # Counted so the hot path can prove it never lands here.
        ws.note_fallback()
    n = c.shape[1]
    for j0, j1, t in t_blocks(tf, transpose):
        vj, cj = v[j0:, j0:j1], c[j0:]
        if mixed:
            cj -= vj @ (t @ (vj.T @ cj))
            continue
        w = ws.temp("abr.w", (j1 - j0, n), c.dtype)
        np.matmul(vj.T, cj, out=w)
        w2 = ws.temp("abr.w2", (j1 - j0, n), c.dtype)
        np.matmul(t, w, out=w2)
        vw = ws.temp("abr.vw", cj.shape, c.dtype)
        np.matmul(vj, w2, out=vw)
        np.subtract(cj, vw, out=cj)
    return c


def check_t(tf: np.ndarray, k: int) -> None:
    """Raise unless ``tf`` is a ``(nb, k)`` block-T, ``1 <= nb <= k``
    (or ``(0, 0)``): the LAPACK kernels read ``nb * k`` entries."""
    shape = tf.shape
    if len(shape) != 2 or shape[1] != k or not (0 < shape[0] <= k or shape == (0, 0)):
        raise KernelError(f"Tf must have shape (nb, {k}) with 1 <= nb <= {k}, got {tf.shape}")


def t_blocks(tf: np.ndarray, transpose: bool):
    """``(j0, j1, op(T_j))`` for each block of a ``(nb, k)`` block-T, in
    the order applying ``Q.T`` (``transpose``) or ``Q`` takes them."""
    nb, k = tf.shape
    starts = range(0, k, nb) if nb else ()
    for j0 in starts if transpose else reversed(starts):
        j1 = min(j0 + nb, k)
        t = tf[: j1 - j0, j0:j1]
        yield j0, j1, (t.T if transpose else t)
