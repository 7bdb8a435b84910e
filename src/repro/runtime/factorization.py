"""The result object of a tiled QR factorization.

Holds the R factor in tiled form plus the ordered log of orthogonal
transformations, from which ``Q`` can be rebuilt or applied implicitly
(the memory-efficient path — building ``Q`` densely is ``O(m^2)`` storage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..dag.tasks import Task, TaskKind
from ..errors import ShapeError
from ..kernels.geqrt import GEQRTResult
from ..kernels.tsmqr import tsmqr
from ..kernels.tsqrt import TSQRTResult
from ..kernels.unmqr import unmqr
from ..tiles import TiledMatrix
from .blas import blas_threads

_Factors = Union[GEQRTResult, TSQRTResult]


@dataclass
class TiledQRFactorization:
    """QR factors of an ``m x n`` matrix computed tile-wise.

    Attributes
    ----------
    r:
        The R factor as a :class:`repro.tiles.TiledMatrix` (upper
        triangular as a dense matrix).
    log:
        Chronological list of ``(task, kernel_factors)`` pairs — the
        sequence of orthogonal transformations whose product (transposed)
        is ``Q``.
    shape:
        Logical shape of the factored matrix.
    """

    r: TiledMatrix
    log: list[tuple[Task, _Factors]] = field(default_factory=list)
    shape: tuple[int, int] = (0, 0)

    @property
    def tile_size(self) -> int:
        return self.r.tile_size

    # -- implicit application -------------------------------------------

    def _apply_op(
        self, task: Task, factors: _Factors, target: np.ndarray, transpose: bool
    ) -> None:
        """Apply one logged transformation to padded dense rows of ``target``."""
        b = self.tile_size
        if task.kind is TaskKind.GEQRT:
            unmqr(factors, target[task.row * b : task.row * b + b], transpose=transpose)
            return
        # Elimination: stacked pair of tile rows.
        top = target[task.row2 * b : task.row2 * b + b]
        tsmqr(factors, top, target[task.row * b : task.row * b + b], transpose=transpose)

    def _padded(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Zero-pad ``x``'s rows up to the tiled row extent."""
        x = np.asarray(x, dtype=self.r.dtype)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.shape[0]:
            raise ShapeError(
                f"expected {self.shape[0]} rows, got array of shape {x.shape}"
            )
        padded_rows = self.r.row_partition.padded_extent
        if padded_rows != x.shape[0]:
            pad = np.zeros((padded_rows - x.shape[0], x.shape[1]), dtype=x.dtype)
            x = np.vstack([x, pad])
        else:
            x = x.copy()
        return x, (1 if squeeze else 0)

    def apply_qt(self, x: np.ndarray) -> np.ndarray:
        """Compute ``Q^T @ x`` implicitly (never forming ``Q``).

        Like a runtime, it runs the kernels under one BLAS pin (see
        :mod:`repro.kernels.lapack`), not one per call."""
        work, squeeze = self._padded(x)
        with blas_threads(1):
            for task, factors in self.log:
                self._apply_op(task, factors, work, transpose=True)
        out = work[: self.shape[0]]
        return out[:, 0] if squeeze else out

    def apply_q(self, x: np.ndarray) -> np.ndarray:
        """Compute ``Q @ x`` implicitly (reverse-order application)."""
        work, squeeze = self._padded(x)
        with blas_threads(1):
            for task, factors in reversed(self.log):
                self._apply_op(task, factors, work, transpose=False)
        out = work[: self.shape[0]]
        return out[:, 0] if squeeze else out

    # -- dense factors ---------------------------------------------------

    def q_dense(self) -> np.ndarray:
        """Materialize the orthogonal factor ``Q`` (``m x m``)."""
        m = self.shape[0]
        return self.apply_q(np.eye(m, dtype=self.r.dtype))

    def q_tiled(self) -> TiledMatrix:
        """Materialize ``Q`` as a :class:`~repro.tiles.TiledMatrix`.

        The tiled ORGQR: the logged block reflectors are applied
        *untransposed in reverse order* to a tiled identity, tile column
        by tile column, with the same UNMQR/TSMQR kernels the
        factorization used — so building Q is itself a tiled operation a
        heterogeneous runtime could distribute.
        """
        m = self.shape[0]
        b = self.tile_size
        q = TiledMatrix.identity(m, b, dtype=self.r.dtype)
        ncols = q.grid_cols
        for task, factors in reversed(self.log):
            if task.kind is TaskKind.GEQRT:
                for j in range(ncols):
                    unmqr(factors, q.tile(task.row, j), transpose=False)
            else:
                for j in range(ncols):
                    tsmqr(
                        factors,
                        q.tile(task.row2, j),
                        q.tile(task.row, j),
                        transpose=False,
                    )
        return q

    def r_dense(self) -> np.ndarray:
        """Materialize ``R`` (``m x n``, upper triangular)."""
        return self.r.to_dense()

    # -- linear solves ----------------------------------------------------

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` via ``R x = Q^T b`` (paper Eqs. 2-3).

        Requires a square, nonsingular factored matrix.
        """
        m, n = self.shape
        if m != n:
            raise ShapeError(f"solve requires a square system, shape is {self.shape}")
        rhs = self.apply_qt(b)
        r = self.r_dense()
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        x = back_substitution(r, rhs)
        return x[:, 0] if squeeze else x

    def reconstruction_error(self, a: np.ndarray) -> float:
        """Relative Frobenius error of ``Q R`` against the original ``A``."""
        qr = self.apply_q(np.asarray(self.r_dense()))
        denom = float(np.linalg.norm(a)) or 1.0
        return float(np.linalg.norm(qr - np.asarray(a))) / denom


def back_substitution(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system ``R x = b`` column-block-wise.

    A from-scratch (BLAS-2 style, vectorized over right-hand sides)
    triangular solve — the library does not call LAPACK solvers.
    """
    r = np.asarray(r)
    b = np.asarray(b)
    n = r.shape[1]
    if r.shape[0] < n:
        raise ShapeError(f"R must have at least {n} rows, got {r.shape}")
    if b.ndim != 2 or b.shape[0] < n:
        raise ShapeError(f"rhs must be 2-D with >= {n} rows, got {b.shape}")
    diag = np.diagonal(r)[:n]
    if np.any(diag == 0.0):
        raise np.linalg.LinAlgError("R is singular (zero on the diagonal)")
    x = b[:n].astype(np.result_type(r.dtype, b.dtype), copy=True)
    for i in range(n - 1, -1, -1):
        x[i] /= r[i, i]
        if i:
            x[:i] -= np.outer(r[:i, i], x[i])
    return x
