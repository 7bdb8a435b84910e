"""Batched row-panel update kernels — many tiles per reflector factor.

The update kernels (UNMQR/TSMQR) dominate tiled-QR runtime (paper
Fig. 4): every GEQRT/TSQRT factor of panel ``k`` must be applied to all
``q-k-1`` trailing tiles of its row (pair).  Applying them one tile at a
time costs one Python kernel call plus fresh GEMM temporaries per tile,
which at small tile sizes buries the BLAS under interpreter and
allocator overhead.

The batched kernels apply one factor to a *horizontally stacked row
panel* ``C = [C_{k+1} | ... | C_{q-1}]`` of shape ``(b, (q-k-1)*b)`` in
the same LAPACK call (or three GEMMs) the per-tile kernel makes — just
``q-k-1`` times wider.  Column ``j`` of the result depends only on
column ``j`` of ``C``, so the batched result is tile-for-tile the same
arithmetic as the per-tile loop (Buttari et al. and Agullo et al. obtain
their multicore performance from exactly this fusion).

:class:`~repro.tiles.TiledMatrix.row_panel` provides the panel views
(zero-copy in row-major storage mode); :mod:`repro.runtime.core_exec`
drives these kernels for the coarsened ``UNMQR_BATCH`` /
``TSMQR_BATCH`` / ``TTMQR_BATCH`` DAG tasks.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .geqrt import GEQRTResult
from .tsmqr import tsmqr
from .tsqrt import TSQRTResult
from .unmqr import unmqr
from .workspace import Workspace


def unmqr_batch(
    factors: GEQRTResult,
    panel: np.ndarray,
    transpose: bool = True,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Apply one GEQRT factor to a whole row panel, in place.

    Parameters
    ----------
    factors:
        Compact factors from :func:`repro.kernels.geqrt`.
    panel:
        ``(m, w*b)`` horizontal stack of the ``w`` tiles to update;
        ``m`` must equal the factored tile's row count.  Updated in
        place and returned.
    transpose, workspace:
        As in :func:`repro.kernels.unmqr`.

    Notes
    -----
    Tile ``j`` of the panel receives exactly the arithmetic the per-tile
    :func:`~repro.kernels.unmqr` would apply — the fusion changes GEMM
    width, not the computation (property-tested to ``1e-12``).
    """
    panel = np.asarray(panel)
    if panel.ndim != 2 or panel.shape[0] != factors.v.shape[0]:
        raise KernelError(
            f"unmqr_batch: panel of shape {panel.shape} incompatible with "
            f"factors of shape {factors.v.shape}"
        )
    return unmqr(factors, panel, transpose=transpose, workspace=workspace)


def tsmqr_batch(
    factors: TSQRTResult,
    panel1: np.ndarray,
    panel2: np.ndarray,
    transpose: bool = True,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one TSQRT/TTQRT factor to a stacked pair of row panels.

    Parameters
    ----------
    factors:
        Output of :func:`repro.kernels.tsqrt` or :func:`repro.kernels.ttqrt`
        (both kinds share this application — the triangular TT ``V2``
        only changes the achievable flop rate, not the algebra).
    panel1:
        ``(b, w*b)`` stack of the ``w`` tiles in the factor's *top* row.
        Updated in place.
    panel2:
        ``(m2, w*b)`` stack of the matching tiles in the eliminated
        (bottom) row.  Updated in place.
    transpose, workspace:
        As in :func:`repro.kernels.tsmqr`.

    Returns
    -------
    tuple
        ``(panel1, panel2)`` — the same arrays, updated.
    """
    panel1 = np.asarray(panel1)
    panel2 = np.asarray(panel2)
    if panel1.ndim != 2 or panel2.ndim != 2 or panel1.shape[1] != panel2.shape[1]:
        raise KernelError(
            f"tsmqr_batch: panel widths differ or not 2-D: "
            f"{panel1.shape} vs {panel2.shape}"
        )
    return tsmqr(factors, panel1, panel2, transpose=transpose, workspace=workspace)


def ttmqr_batch(
    factors: TSQRTResult,
    panel1: np.ndarray,
    panel2: np.ndarray,
    transpose: bool = True,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one TTQRT factor to a stacked pair of row panels.

    The TT counterpart of :func:`tsmqr_batch`: numerically the same
    application (only ``V2``/``Tf`` are seen), kept as a named entry
    point so the kernel table can specialize the triangular-``V2`` case and so
    the ``TTMQR_BATCH`` DAG tasks have a first-class kernel.
    """
    if factors.kind != "TT":
        raise KernelError(f"ttmqr_batch requires TT factors, got kind={factors.kind!r}")
    return tsmqr_batch(factors, panel1, panel2, transpose=transpose, workspace=workspace)
