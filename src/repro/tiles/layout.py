"""The :class:`TiledMatrix` container.

A ``TiledMatrix`` stores a matrix as a ``p x q`` grid of square ``b x b``
NumPy tiles — the data layout every kernel, the DAG executor and the
simulator's transfer accounting operate on.  Tiles are owned,
C-contiguous arrays (a *tiled* layout, as PLASMA uses), not views into
one big array: in the paper each tile lives in some device's memory, and
owning tiles makes per-tile movement explicit.

A second, optional *row-major* storage mode (:meth:`TiledMatrix.
to_row_major`) keeps each tile row in one contiguous ``(b, q*b)`` buffer
with the tiles as column-slice views into it.  Per-tile semantics are
unchanged, but :meth:`TiledMatrix.row_panel` then returns zero-copy
views over column ranges — the layout the batched update kernels
(:mod:`repro.kernels.batched`) fuse their wide GEMMs over.  In the
legacy list-of-tiles layout ``row_panel`` gathers a copy and
:meth:`TiledMatrix.scatter_row_panel` writes it back.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..config import DEFAULT_DTYPE, DEFAULT_TILE_SIZE
from ..errors import ShapeError, TilingError
from .partition import Partition


class TiledMatrix:
    """A matrix held as a grid of square tiles.

    Parameters
    ----------
    tiles:
        ``p x q`` nested list (rows of tiles) of ``b x b`` ndarrays.
    rows, cols:
        Logical (unpadded) matrix shape.

    Notes
    -----
    Use :meth:`from_dense` / :meth:`to_dense` to convert; construct
    directly only when you already hold a valid tile grid.
    """

    def __init__(self, tiles: list[list[np.ndarray]], rows: int, cols: int):
        if not tiles or not tiles[0]:
            raise TilingError("tile grid must be non-empty")
        b = tiles[0][0].shape[0]
        for r, row in enumerate(tiles):
            if len(row) != len(tiles[0]):
                raise TilingError(f"ragged tile grid at row {r}")
            for c, t in enumerate(row):
                if t.shape != (b, b):
                    raise TilingError(
                        f"tile ({r},{c}) has shape {t.shape}, expected ({b},{b})"
                    )
        self._tiles = tiles
        self._b = b
        # plain ints: tile() bounds-checks against them on every call
        self._p, self._q = len(tiles), len(tiles[0])
        self._rowbufs: list[np.ndarray] | None = None
        self._row_part = Partition(rows, b)
        self._col_part = Partition(cols, b)
        if self._row_part.num_tiles != len(tiles) or self._col_part.num_tiles != len(tiles[0]):
            raise TilingError(
                f"grid {len(tiles)}x{len(tiles[0])} inconsistent with logical shape "
                f"({rows},{cols}) at tile size {b}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_size: int = DEFAULT_TILE_SIZE,
        dtype=None,
        storage: str = "tiles",
    ) -> "TiledMatrix":
        """Split a dense matrix into owned ``b x b`` tiles (zero padded).

        ``storage`` selects the tile layout: ``"tiles"`` (default, one
        owned array per tile) or ``"rowmajor"`` (contiguous per-row
        panels; see :meth:`to_row_major`).
        """
        if storage not in ("tiles", "rowmajor"):
            raise TilingError(f"storage must be 'tiles' or 'rowmajor', got {storage!r}")
        a = np.asarray(a, dtype=dtype if dtype is not None else None)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
        if a.dtype.kind != "f":
            a = a.astype(DEFAULT_DTYPE)
        rows, cols = a.shape
        rp, cp = Partition(rows, tile_size), Partition(cols, tile_size)
        b = tile_size
        grid: list[list[np.ndarray]] = []
        for i in range(rp.num_tiles):
            r0, r1 = rp.tile_span(i)
            row = []
            for j in range(cp.num_tiles):
                c0, c1 = cp.tile_span(j)
                t = np.zeros((b, b), dtype=a.dtype)
                t[: r1 - r0, : c1 - c0] = a[r0:r1, c0:c1]
                row.append(t)
            grid.append(row)
        out = cls(grid, rows, cols)
        if storage == "rowmajor":
            out.to_row_major()
        return out

    @classmethod
    def over(cls, buf: np.ndarray, rows: int, cols: int) -> "TiledMatrix":
        """A tiled matrix whose tiles are views into ``buf`` (no copy).

        ``buf`` is ``(p, q, b, b)`` for the list-of-tiles layout or
        ``(p, b, q*b)`` for row-major storage, e.g. a shared-memory
        segment that several processes map.
        """
        if buf.ndim == 4:
            return cls([list(row) for row in buf], rows, cols)
        b = buf.shape[1]
        q = buf.shape[2] // b
        out = cls([[row[:, j * b : (j + 1) * b] for j in range(q)] for row in buf], rows, cols)
        out._rowbufs = list(buf)
        return out

    @classmethod
    def zeros(
        cls, rows: int, cols: int, tile_size: int = DEFAULT_TILE_SIZE, dtype=DEFAULT_DTYPE
    ) -> "TiledMatrix":
        """An all-zero tiled matrix of the given logical shape."""
        rp, cp = Partition(rows, tile_size), Partition(cols, tile_size)
        grid = [
            [np.zeros((tile_size, tile_size), dtype=dtype) for _ in range(cp.num_tiles)]
            for _ in range(rp.num_tiles)
        ]
        return cls(grid, rows, cols)

    @classmethod
    def identity(
        cls, n: int, tile_size: int = DEFAULT_TILE_SIZE, dtype=DEFAULT_DTYPE
    ) -> "TiledMatrix":
        """The n-by-n identity in tiled form (padded part stays zero)."""
        out = cls.zeros(n, n, tile_size, dtype)
        for k in range(out.grid_rows):
            np.fill_diagonal(out.tile(k, k), 1.0)
        # Clear any padded diagonal entries beyond the logical extent.
        if not out.row_partition.is_exact:
            last = out.tile(out.grid_rows - 1, out.grid_cols - 1)
            r0, r1 = out.row_partition.tile_span(out.grid_rows - 1)
            for d in range(r1 - r0, tile_size):
                last[d, d] = 0.0
        return out

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        tile_size: int = DEFAULT_TILE_SIZE,
        seed: int | None = None,
        dtype=DEFAULT_DTYPE,
    ) -> "TiledMatrix":
        """Random standard-normal matrix (the paper's random-float input)."""
        rng = np.random.default_rng(seed)
        return cls.from_dense(
            rng.standard_normal((rows, cols)).astype(dtype), tile_size
        )

    # -- basic properties -----------------------------------------------

    @property
    def tile_size(self) -> int:
        return self._b

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (unpadded) matrix shape."""
        return (self._row_part.extent, self._col_part.extent)

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tile-grid shape ``(p, q)``."""
        return (self._p, self._q)

    @property
    def grid_rows(self) -> int:
        return self._p

    @property
    def grid_cols(self) -> int:
        return self._q

    @property
    def dtype(self):
        return self._tiles[0][0].dtype

    @property
    def row_partition(self) -> Partition:
        return self._row_part

    @property
    def col_partition(self) -> Partition:
        return self._col_part

    # -- tile access ----------------------------------------------------

    def tile(self, i: int, j: int) -> np.ndarray:
        """The ``b x b`` tile at grid position ``(i, j)``.

        This is a *live view*: the returned array aliases the matrix's
        storage, so in-place mutation (``tile[...] = x``, ``tile -= y``)
        is immediately visible through the matrix — the kernels rely on
        this.  In row-major storage mode the view is a column slice of
        the row's contiguous buffer rather than an owned array.
        """
        if not (0 <= i < self._p and 0 <= j < self._q):
            raise TilingError(
                f"tile ({i},{j}) out of range for grid {self.grid_shape}"
            )
        return self._tiles[i][j]

    @property
    def tile_rows(self) -> list[list[np.ndarray]]:
        """The live grid, ``tile_rows[i][j] is tile(i, j)``, for callers
        whose indices are valid by construction (no range check)."""
        return self._tiles

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        """Replace tile ``(i, j)`` contents (shape- and dtype-checked).

        The value is copied in; its dtype must equal the matrix dtype —
        silently splicing e.g. a float32 tile into a float64 matrix
        would quietly destroy precision, so mismatches raise
        :class:`~repro.errors.TilingError` (cast explicitly if meant).
        """
        t = self.tile(i, j)
        value = np.asarray(value)
        if value.dtype != t.dtype:
            raise TilingError(
                f"tile value dtype {value.dtype} != matrix dtype {t.dtype}; "
                f"cast explicitly if the narrowing/widening is intended"
            )
        if value.shape != t.shape:
            raise ShapeError(f"tile value shape {value.shape} != {t.shape}")
        t[...] = value

    def iter_tiles(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(i, j, tile)`` in row-major grid order."""
        for i, row in enumerate(self._tiles):
            for j, t in enumerate(row):
                yield i, j, t

    def column_tiles(self, j: int) -> list[np.ndarray]:
        """All tiles of tile column ``j``, top to bottom."""
        if not 0 <= j < self.grid_cols:
            raise TilingError(f"tile column {j} out of range")
        return [row[j] for row in self._tiles]

    # -- row panels (batched-update storage) ----------------------------

    @property
    def is_row_major(self) -> bool:
        """True when tile rows live in contiguous per-row buffers."""
        return self._rowbufs is not None

    def to_row_major(self) -> "TiledMatrix":
        """Convert storage in place to contiguous per-row panels.

        After conversion each tile row ``i`` occupies one C-contiguous
        ``(b, q*b)`` buffer and ``tile(i, j)`` returns a view into it,
        so :meth:`row_panel` is zero-copy.  Idempotent; returns ``self``
        for chaining.  Previously handed-out tile arrays stop aliasing
        the matrix — convert before taking tile references.
        """
        if self._rowbufs is None:
            b, q = self._b, self.grid_cols
            bufs: list[np.ndarray] = []
            for i, row in enumerate(self._tiles):
                buf = np.empty((b, q * b), dtype=self.dtype)
                views = []
                for j, t in enumerate(row):
                    buf[:, j * b : (j + 1) * b] = t
                    views.append(buf[:, j * b : (j + 1) * b])
                self._tiles[i] = views
                bufs.append(buf)
            self._rowbufs = bufs
        return self

    def _check_panel_range(self, i: int, j0: int, j1: int) -> None:
        if not 0 <= i < self.grid_rows:
            raise TilingError(f"tile row {i} out of range for grid {self.grid_shape}")
        if not (0 <= j0 < j1 <= self.grid_cols):
            raise TilingError(
                f"column range [{j0}, {j1}) invalid for grid {self.grid_shape}"
            )

    def row_panel(self, i: int, j0: int, j1: int) -> np.ndarray:
        """Tiles ``(i, j0) ... (i, j1-1)`` as one ``(b, (j1-j0)*b)`` panel.

        In row-major storage this is a zero-copy view — mutations are
        immediately visible through the matrix and
        :meth:`scatter_row_panel` is a no-op.  In the legacy
        list-of-tiles layout the panel is a gathered *copy*; call
        :meth:`scatter_row_panel` to write updates back.
        """
        self._check_panel_range(i, j0, j1)
        b = self._b
        if self._rowbufs is not None:
            return self._rowbufs[i][:, j0 * b : j1 * b]
        if j1 - j0 == 1:
            return self._tiles[i][j0]  # single tile: live view either way
        return np.concatenate(self._tiles[i][j0:j1], axis=1)

    def scatter_row_panel(self, i: int, j0: int, j1: int, panel: np.ndarray) -> None:
        """Write a (possibly gathered) row panel back into tiles.

        Detects the zero-copy case (``panel`` already aliases the
        matrix's storage) and returns without copying, so callers can
        unconditionally pair ``row_panel``/``scatter_row_panel``.
        """
        self._check_panel_range(i, j0, j1)
        b = self._b
        if panel.shape != (b, (j1 - j0) * b):
            raise ShapeError(
                f"panel shape {panel.shape} != ({b}, {(j1 - j0) * b})"
            )
        if self._rowbufs is not None:
            dst = self._rowbufs[i][:, j0 * b : j1 * b]
            if dst is panel or np.shares_memory(dst, panel):
                return
            dst[...] = panel
            return
        if j1 - j0 == 1 and panel is self._tiles[i][j0]:
            return
        for j in range(j0, j1):
            self._tiles[i][j][...] = panel[:, (j - j0) * b : (j - j0 + 1) * b]

    # -- conversion -----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Reassemble the logical (unpadded) dense matrix."""
        rows, cols = self.shape
        out = np.empty((rows, cols), dtype=self.dtype)
        for i, j, t in self.iter_tiles():
            r0, r1 = self._row_part.tile_span(i)
            c0, c1 = self._col_part.tile_span(j)
            out[r0:r1, c0:c1] = t[: r1 - r0, : c1 - c0]
        return out

    def copy(self) -> "TiledMatrix":
        """Deep copy (each tile copied; storage mode preserved)."""
        grid = [[t.copy() for t in row] for row in self._tiles]
        out = TiledMatrix(grid, *self.shape)
        if self.is_row_major:
            out.to_row_major()
        return out

    def transpose(self) -> "TiledMatrix":
        """The transposed matrix, still in tiled form.

        Grid positions swap and each tile is transposed; padding is
        preserved (zero tails move from rows to columns).
        """
        rows, cols = self.shape
        grid = [
            [self._tiles[i][j].T.copy() for i in range(self.grid_rows)]
            for j in range(self.grid_cols)
        ]
        return TiledMatrix(grid, cols, rows)

    # -- misc -----------------------------------------------------------

    def tile_bytes(self, element_size: int | None = None) -> int:
        """Bytes in one tile (the unit of every modelled transfer)."""
        if element_size is None:
            element_size = self.dtype.itemsize
        return self._b * self._b * element_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TiledMatrix(shape={self.shape}, grid={self.grid_shape}, "
            f"b={self._b}, dtype={self.dtype})"
        )
