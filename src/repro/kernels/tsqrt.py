"""TSQRT — the *elimination* kernel (paper Sec. II-B step 3, TS variant).

Factorizes a stacked pair of same-column tiles

    [ R1 ]          [ R'1 ]
    [    ]  =  Q *  [     ]          (Eqs. 7-8)
    [ A2 ]          [  0  ]

where ``R1`` is the already-triangulated diagonal tile and ``A2`` a dense
("square") tile below it.  The Householder vectors have the structure
``V = [I; V2]``: the top block is implicitly the identity, so only the
dense ``V2`` is stored.  The paper's TT ("triangle on top of triangle")
variant lives in :mod:`repro.kernels.ttqrt` and shares this machinery.
float32/float64 pairs go to LAPACK's ``?tpqrt`` (:mod:`repro.kernels.lapack`);
the Python loop below is the fallback without it and the oracle in tests.
Both store ``Tf`` in LAPACK's ``(nb, b)`` block layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import KernelError
from . import lapack
from .blockreflector import build_t_factor
from .householder import make_reflector


@dataclass(frozen=True)
class TSQRTResult:
    """Factors produced by :func:`tsqrt` / :func:`repro.kernels.ttqrt`.

    Attributes
    ----------
    r:
        ``(b, b)`` updated upper-triangular top tile (replaces ``R1``).
    v2:
        ``(m2, b)`` bottom parts of the Householder vectors (the top parts
        are implicitly the identity).  Upper triangular for the TT kind.
    tf:
        ``(nb, b)`` compact-WY block-T for ``V = [I; V2]``, as in
        :class:`~repro.kernels.geqrt.GEQRTResult` (a full ``(b, b)`` T
        is the case ``nb = b``).
    taus:
        Length-``b`` reflector scalars.
    kind:
        ``"TS"`` (dense bottom tile) or ``"TT"`` (triangular bottom tile).
    """

    r: np.ndarray
    v2: np.ndarray
    tf: np.ndarray
    taus: np.ndarray
    kind: str = "TS"
    #: LAPACK operand addresses, taken on first use; never pickled.
    _lapack: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_lapack": None}

    def q_dense(self) -> np.ndarray:
        """Densify the stacked ``Q`` (tests/teaching only)."""
        from .tsmqr import tsmqr

        m2, b = self.v2.shape
        q = np.eye(b + m2, dtype=self.v2.dtype)
        tsmqr(self, q[:b], q[b:], transpose=False)
        return q


def _stacked_factor(r1: np.ndarray, a2: np.ndarray, triangular_bottom: bool) -> TSQRTResult:
    """Shared TS/TT factorization body.

    For TT, column ``k``'s bottom vector only touches rows ``0..k`` of the
    (upper-triangular) bottom tile, which the loop exploits to keep the
    flop count at roughly half the TS cost.
    """
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
    if r1.dtype.kind == "f" and a2.dtype.kind == "f":
        dtype = np.result_type(r1.dtype, a2.dtype)  # preserves float32
    else:
        dtype = np.result_type(r1.dtype, a2.dtype, np.float64)
    b = r1.shape[1]
    m2 = a2.shape[0]
    kind = "TT" if triangular_bottom else "TS"
    out = lapack.tpqrt(r1, a2, b if triangular_bottom else 0, dtype) if b and m2 else None
    if out is not None:
        r, v2, tf = out
        return TSQRTResult(r=r, v2=v2, tf=tf, taus=lapack.taus_of(tf), kind=kind)

    r = np.asarray(r1, dtype=dtype).copy()
    bot = np.asarray(a2, dtype=dtype).copy()
    v2 = np.zeros((m2, b), dtype=dtype)
    taus = np.zeros(b, dtype=dtype)

    for k in range(b):
        # Rows of the bottom tile this column's reflector may touch.
        rows = slice(0, min(k + 1, m2)) if triangular_bottom else slice(0, m2)
        x = np.concatenate(([r[k, k]], bot[rows, k]))
        refl = make_reflector(x)
        taus[k] = refl.tau
        z = refl.v[1:]
        v2[rows, k] = z
        r[k, k] = refl.beta
        bot[rows, k] = 0.0
        if refl.tau != 0.0 and k + 1 < b:
            # w_j = R[k, j] + z^T bot[:, j]; subtract tau * w from both parts.
            w = r[k, k + 1 :] + z @ bot[rows, k + 1 :]
            w *= refl.tau
            r[k, k + 1 :] -= w
            bot[rows, k + 1 :] -= np.outer(z, w)

    v_full = np.vstack([np.eye(b, dtype=dtype), v2])
    tf = lapack.to_block_t(build_t_factor(v_full, taus))
    return TSQRTResult(r=r, v2=v2, tf=tf, taus=taus, kind=kind)


def tsqrt(r1: np.ndarray, a2: np.ndarray) -> TSQRTResult:
    """Triangle-on-top-of-*square* elimination (PLASMA's TSQRT).

    Parameters
    ----------
    r1:
        ``(b, b)`` upper-triangular diagonal tile (output of GEQRT; only
        its upper triangle is referenced).
    a2:
        ``(m2, b)`` dense tile in the same tile column, to be zeroed.

    Returns
    -------
    TSQRTResult
        ``result.r`` replaces ``r1``; the eliminated tile becomes zero.
    """
    return _stacked_factor(r1, a2, triangular_bottom=False)
