"""GEQRT — the *triangulation* kernel (paper Sec. II-B step 1).

QR-factorizes a single tile ``A_t = Q_t R_t`` (Eq. 4) and replaces the
tile with ``R_t`` (Eq. 5).  The orthogonal factor is kept in compact form
(Householder vectors ``V`` + compact-WY ``Tf``) so the update kernels can
apply it cheaply.  float32/float64 tiles go to LAPACK's ``?geqrt``
(:mod:`repro.kernels.lapack`); the Python panel loop below is the
fallback without it and the oracle in tests.  Both store ``Tf`` in
LAPACK's ``(nb, n)`` block layout, ``nb = min(n, lapack.IB)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import KernelError
from . import lapack
from .householder import make_reflector, apply_reflector
from .blockreflector import build_t_factor, apply_block_reflector


@dataclass(frozen=True)
class GEQRTResult:
    """Factors produced by :func:`geqrt` for one tile.

    Attributes
    ----------
    r:
        ``(m, n)`` upper-triangular factor (this is what overwrites the
        tile in the tiled algorithm).
    v:
        ``(m, n)`` unit-lower-trapezoidal Householder vectors
        (``v[i, i] == 1``, zeros above the diagonal).
    tf:
        ``(nb, n)`` compact-WY block-T (see :mod:`repro.kernels.lapack`):
        ``Q = Q_1 Q_2 ...`` with ``Q_j = I - V_j T_j V_j.T`` over blocks
        of ``nb`` reflectors.  A full ``(n, n)`` T (``nb = n``, as older
        checkpoints hold) is the one-block case, ``Q = I - V Tf V.T``.
    taus:
        Length-``n`` reflector scalars (``tf[j % nb, j]``).
    """

    r: np.ndarray
    v: np.ndarray
    tf: np.ndarray
    taus: np.ndarray
    #: LAPACK operand addresses, taken on first use; never pickled.
    _lapack: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_lapack": None}

    @property
    def tile_shape(self) -> tuple[int, int]:
        return self.r.shape

    def q_dense(self) -> np.ndarray:
        """Densify ``Q`` (tests/teaching only — ``O(m^2 n)``)."""
        from .unmqr import unmqr

        return unmqr(self, np.eye(self.v.shape[0], dtype=self.v.dtype), transpose=False)


#: Tiles wider than this are factored panel-blocked by default.
_BLOCK_THRESHOLD = 48
_DEFAULT_INNER_BLOCK = 32


def _factor_panel(r: np.ndarray, v: np.ndarray, taus: np.ndarray, j0: int, j1: int) -> None:
    """Unblocked factorization of columns ``[j0, j1)``, updating only the
    panel's own trailing columns (the caller block-updates the rest)."""
    m, _n = r.shape
    for k in range(j0, j1):
        if k == m - 1:
            v[k, k] = 1.0
            taus[k] = 0.0
            continue
        refl = make_reflector(r[k:, k])
        taus[k] = refl.tau
        v[k:, k] = refl.v
        r[k, k] = refl.beta
        r[k + 1 :, k] = 0.0
        if k + 1 < j1:
            apply_reflector(refl, r[k:, k + 1 : j1])


def geqrt(a: np.ndarray, inner_block: int | None = None) -> GEQRTResult:
    """Householder-QR-factorize a tile, returning compact factors.

    Parameters
    ----------
    a:
        ``(m, n)`` tile with ``m >= n`` (square ``b x b`` in the paper).
        Not modified; the caller replaces the tile with ``result.r``.
    inner_block:
        Panel width of the Python loop, which runs only without LAPACK's
        ``?geqrt`` or for other dtypes.  ``None`` picks automatically
        (unblocked for narrow tiles, 32-column panels for wide ones);
        pass ``1`` to force the textbook unblocked loop.

    Returns
    -------
    GEQRTResult

    Notes
    -----
    The blocked variant computes *identical* reflectors: panels are
    factored column by column, but each panel's trailing update is one
    compact-WY application (three GEMMs) instead of per-column rank-1
    updates — the standard LAPACK ``geqrf`` structure, worth several x
    on wide tiles where Python-loop overhead dominates.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise KernelError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise KernelError(f"geqrt requires m >= n, got shape {a.shape}")
    if inner_block is None:
        ib = _DEFAULT_INNER_BLOCK if n > _BLOCK_THRESHOLD else n
    else:
        if inner_block < 1:
            raise KernelError(f"inner_block must be >= 1, got {inner_block}")
        ib = inner_block

    dtype = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    if n and (out := lapack.geqrt(a, dtype)) is not None:
        r, tf = out
        v = np.triu(r.T, 1).T  # Fortran order, as ?gemqrt reads it
        r -= v  # exact zeros below the diagonal
        np.fill_diagonal(v, 1.0)
        return GEQRTResult(r=r, v=v, tf=tf, taus=lapack.taus_of(tf))

    r = a.astype(dtype)  # always a copy
    v = np.zeros((m, n), dtype=r.dtype)
    taus = np.zeros(n, dtype=r.dtype)
    for j0 in range(0, n, ib):
        j1 = min(j0 + ib, n)
        _factor_panel(r, v, taus, j0, j1)
        if j1 < n:
            panel_v = v[j0:, j0:j1]
            panel_tf = build_t_factor(panel_v, taus[j0:j1])
            apply_block_reflector(panel_v, panel_tf, r[j0:, j1:], transpose=True)
    tf = lapack.to_block_t(build_t_factor(v, taus))
    return GEQRTResult(r=r, v=v, tf=tf, taus=taus)
