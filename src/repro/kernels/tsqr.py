"""TSQR — communication-avoiding tall-skinny QR (paper refs. [12, 13]).

The paper's related work contrasts its column distribution with
communication-avoiding QR, which splits a tall matrix into *row* blocks,
factorizes each locally, and merges the small R factors up a binary
tree.  This is the numeric kernel of that approach, built entirely from
this package's GEQRT/TTQRT machinery; the scheduling comparison lives in
:mod:`repro.sim.rowblock` / :mod:`repro.experiments.caqr_comparison`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import KernelError
from .geqrt import GEQRTResult, geqrt
from .tsmqr import tsmqr
from .tsqrt import TSQRTResult
from .ttqrt import ttqrt
from .unmqr import unmqr


@dataclass
class TSQRResult:
    """Implicit factors of a tall-skinny QR via tree reduction.

    Attributes
    ----------
    r:
        ``(n, n)`` final upper-triangular factor.
    row_blocks:
        ``(start, stop)`` row range of each local block.
    local:
        Per-block GEQRT factors.
    tree:
        Merge steps ``(dst_block, src_block, factors)`` in application
        order: each TTQRT folded block ``src``'s R into block ``dst``'s.
    shape:
        Original matrix shape ``(m, n)``.
    """

    r: np.ndarray
    row_blocks: list[tuple[int, int]]
    local: list[GEQRTResult]
    tree: list[tuple[int, int, TSQRTResult]] = field(default_factory=list)
    shape: tuple[int, int] = (0, 0)

    # -- implicit application ------------------------------------------------

    def apply_qt(self, x: np.ndarray) -> np.ndarray:
        """``Q^T @ x`` using the local factors then the merge tree."""
        work, squeeze = self._as_work(x)
        n = self.shape[1]
        for (start, stop), f in zip(self.row_blocks, self.local):
            unmqr(f, work[start:stop], transpose=True)
        for dst, src, f in self.tree:
            tsmqr(f, work[self._head(dst, n)], work[self._head(src, n)], transpose=True)
        return work[:, 0] if squeeze else work

    def apply_q(self, x: np.ndarray) -> np.ndarray:
        """``Q @ x`` — the reverse-order application."""
        work, squeeze = self._as_work(x)
        n = self.shape[1]
        for dst, src, f in reversed(self.tree):
            tsmqr(f, work[self._head(dst, n)], work[self._head(src, n)], transpose=False)
        for (start, stop), f in zip(self.row_blocks, self.local):
            unmqr(f, work[start:stop], transpose=False)
        return work[:, 0] if squeeze else work

    def q_dense(self) -> np.ndarray:
        """Leading ``m x n`` orthonormal columns of ``Q``."""
        m, n = self.shape
        eye = np.zeros((m, n), dtype=self.r.dtype)
        np.fill_diagonal(eye, 1.0)
        return self.apply_q(eye)

    # -- helpers ---------------------------------------------------------------

    def _as_work(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=self.r.dtype)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.shape[0] != self.shape[0]:
            raise KernelError(
                f"expected {self.shape[0]} rows, got array of shape {x.shape}"
            )
        return x.copy(), squeeze

    def _head(self, block: int, n: int) -> slice:
        start, _stop = self.row_blocks[block]
        return slice(start, start + n)


def tsqr(a: np.ndarray, num_blocks: int | None = None) -> TSQRResult:
    """Tall-skinny QR by local factorization + binary R-merge tree.

    Parameters
    ----------
    a:
        ``(m, n)`` with ``m >= n`` (typically ``m >> n``).
    num_blocks:
        Row blocks (the "processors" of CA-QR); defaults to
        ``max(1, m // (2 n))`` and is clipped so each block keeps at
        least ``n`` rows.

    Returns
    -------
    TSQRResult
        With ``a ~= result.q_dense() @ result.r``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise KernelError(f"tsqr expects a 2-D matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise KernelError(f"tsqr requires m >= n, got {a.shape}")
    if n == 0:
        raise KernelError("tsqr needs at least one column")
    max_blocks = max(1, m // n)
    p = num_blocks if num_blocks is not None else max(1, m // (2 * n))
    if p < 1:
        raise KernelError(f"num_blocks must be >= 1, got {p}")
    p = min(p, max_blocks)

    # Row ranges: even split with the remainder spread over early blocks.
    base, rem = divmod(m, p)
    blocks: list[tuple[int, int]] = []
    start = 0
    for i in range(p):
        stop = start + base + (1 if i < rem else 0)
        blocks.append((start, stop))
        start = stop

    local: list[GEQRTResult] = []
    rs: list[np.ndarray] = []
    for b0, b1 in blocks:
        f = geqrt(a[b0:b1])
        local.append(f)
        rs.append(np.triu(f.r[:n]))

    tree: list[tuple[int, int, TSQRTResult]] = []
    dist = 1
    while dist < p:
        for dst in range(0, p - dist, 2 * dist):
            src = dst + dist
            f = ttqrt(rs[dst], rs[src])
            rs[dst] = f.r
            tree.append((dst, src, f))
        dist *= 2

    return TSQRResult(
        r=rs[0], row_blocks=blocks, local=local, tree=tree, shape=(m, n)
    )
