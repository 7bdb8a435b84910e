"""Elementary Householder reflectors (Algorithm 1 of the paper).

A Householder reflector for a vector ``x`` is ``H = I - tau * v v^T`` with
``v[0] = 1`` chosen so that ``H x = [beta, 0, ..., 0]``.  This module
implements the numerically-stable LAPACK ``dlarfg`` convention, which the
paper's Algorithm 1 (Householder 1958) abbreviates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError


#: LAPACK's safe minimum / eps: a squared norm below it lost digits to underflow.
_SAFMIN = {np.dtype(t): float(np.finfo(t).tiny / np.finfo(t).eps) for t in (np.float32, np.float64)}


@dataclass(frozen=True)
class HouseholderReflector:
    """An elementary reflector ``H = I - tau * v v^T`` with ``v[0] == 1``.

    Attributes
    ----------
    v:
        The Householder vector, ``v[0] == 1``.
    tau:
        The reflector scalar; ``tau == 0`` encodes ``H == I``.
    beta:
        The value the reflected vector's first component takes,
        i.e. ``H @ x == [beta, 0, ..., 0]``.
    """

    v: np.ndarray
    tau: float
    beta: float

    def matrix(self) -> np.ndarray:
        """Densify ``H`` (for tests and teaching; kernels never do this)."""
        n = self.v.shape[0]
        return np.eye(n, dtype=self.v.dtype) - self.tau * np.outer(self.v, self.v)


def make_reflector(x: np.ndarray) -> HouseholderReflector:
    """Compute the Householder reflector annihilating ``x[1:]``.

    Follows the LAPACK ``larfg`` convention: ``beta = -sign(x[0]) * ||x||``
    so the subtraction ``x[0] - beta`` never cancels (the paper's
    ``alpha_k = -sgn(a_kk) ||a_k||`` in Algorithm 1, line 6).

    Parameters
    ----------
    x:
        1-D vector with at least one element.

    Returns
    -------
    HouseholderReflector
        With ``v[0] == 1``; ``tau == 0`` when ``x[1:]`` is already zero.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] == 0:
        raise KernelError(f"reflector input must be a non-empty 1-D vector, got shape {x.shape}")
    dtype = np.result_type(x.dtype, np.float64) if x.dtype.kind != "f" else x.dtype
    x = x.astype(dtype, copy=False)

    alpha = float(x[0])
    tail = x[1:]
    sigma = float(tail @ tail)
    scale = 1.0
    if sigma < _SAFMIN.get(dtype, 0.0) and (scale := float(np.abs(x).max())) > 0.0:
        # Rescale to max|x| = 1 before the norm, as LAPACK's dlarfg does;
        # v and tau are scale-invariant, beta is scaled back.
        tail = x[1:] / scale
        sigma = float(tail @ tail)
    v = np.empty_like(x)
    v[0] = 1.0
    if sigma == 0.0:
        # Already in reflected form; H = I.
        return HouseholderReflector(v=np.concatenate(([1.0], np.zeros_like(tail))).astype(dtype), tau=0.0, beta=alpha)

    head = alpha / scale
    norm_x = float(np.hypot(head, np.sqrt(sigma)))
    beta = -np.copysign(norm_x, head) if head != 0.0 else -norm_x
    # v = (x - beta e1) / (x[0] - beta); with this sign choice the
    # denominator is |x0| + ||x|| scaled, never catastrophic.
    denom = head - beta
    v[1:] = tail / denom
    tau = (beta - head) / beta
    return HouseholderReflector(v=v, tau=float(tau), beta=float(beta) * scale)


def apply_reflector(refl: HouseholderReflector, c: np.ndarray) -> np.ndarray:
    """Apply ``H = I - tau v v^T`` to a matrix from the left, in place.

    ``H`` is symmetric so ``H == H.T``; a single routine covers both the
    factorization (apply ``H``) and Q-building directions.

    Parameters
    ----------
    refl:
        The reflector.
    c:
        2-D array with ``c.shape[0] == len(refl.v)``; modified in place
        and also returned.
    """
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != refl.v.shape[0]:
        raise KernelError(
            f"cannot apply reflector of length {refl.v.shape[0]} to array of shape {c.shape}"
        )
    if refl.tau == 0.0:
        return c
    w = refl.v @ c  # v^T C, shape (ncols,)
    c -= refl.tau * np.outer(refl.v, w)
    return c


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference dense Householder QR (the paper's Algorithm 1).

    This is the unblocked column-by-column algorithm the tiled variant
    parallelizes.  It is used as the sequential baseline and as an oracle
    in tests.  Returns ``(Q, R)`` with ``A = Q @ R``, ``Q`` orthogonal and
    ``R`` upper triangular (for ``m >= n``, ``Q`` is m-by-m and ``R``
    m-by-n).

    Parameters
    ----------
    a:
        2-D real matrix, ``m >= n``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise KernelError(f"householder_qr expects a 2-D matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise KernelError(f"householder_qr requires m >= n, got shape {a.shape}")
    r = a.copy()
    q = np.eye(m, dtype=r.dtype)
    for k in range(min(m - 1, n)):
        refl = make_reflector(r[k:, k])
        apply_reflector(refl, r[k:, k:])
        r[k + 1 :, k] = 0.0  # exact zeros below the diagonal
        # Accumulate Q = H_1 H_2 ... H_n applied to identity: Q <- Q H_k.
        # (Q H)^T = H Q^T, so apply H to Q^T's rows == Q's columns.
        apply_reflector(refl, q[k:, :])
    return q.T, r
