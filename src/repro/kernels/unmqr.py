"""UNMQR — the *update for triangulation* kernel (paper Sec. II-B step 2).

After GEQRT factorizes the diagonal tile of a column, every tile to its
right in the same tile row must be hit with ``Q_t^T`` (the paper writes the
update as ``A_t <- Q_t A_t`` in Eq. 6 with ``Q_t`` the transforming factor;
in the compact-WY convention used here that operator is
``Q^T = I - V Tf^T V^T``).  float32/float64 tiles go to LAPACK's
``?gemqrt`` (:mod:`repro.kernels.lapack`); the NumPy block reflector is
the fallback without it, for mixed dtypes and for non-unit-stride rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import KernelError
from . import lapack
from .blockreflector import apply_block_reflector, check_t
from .workspace import Workspace, thread_workspace

if TYPE_CHECKING:
    from .geqrt import GEQRTResult


def unmqr(
    factors: GEQRTResult,
    c: np.ndarray,
    transpose: bool = True,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Apply a GEQRT tile's orthogonal factor to another tile, in place.

    Parameters
    ----------
    factors:
        Compact factors from :func:`repro.kernels.geqrt`.
    c:
        ``(m, n)`` tile to update; ``m`` must equal the factored tile's
        row count.  Modified in place and returned.  ``n`` may span
        several horizontally stacked tiles (the batched-update path).
    transpose:
        ``True`` (default) applies ``Q^T`` — the factorization direction
        used during the decomposition.  ``False`` applies ``Q`` — used
        when explicitly building the orthogonal factor.
    workspace:
        Scratch arena for LAPACK's ``WORK`` and argument blocks, or the
        NumPy GEMM temporaries (thread-local default).
    """
    c = np.asarray(c)
    ws = workspace if workspace is not None else thread_workspace()
    if lapack.prepared(factors, transpose, ws, c):
        return c
    if c.ndim != 2 or c.shape[0] != factors.v.shape[0]:
        raise KernelError(
            f"unmqr: tile of shape {c.shape} incompatible with factors of "
            f"shape {factors.v.shape}"
        )
    check_t(factors.tf, factors.v.shape[1])
    if not lapack.gemqrt(factors, c, transpose, ws):
        apply_block_reflector(factors.v, factors.tf, c, transpose=transpose, workspace=ws)
    return c
