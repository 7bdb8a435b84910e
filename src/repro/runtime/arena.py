"""The multiprocess runtime's shared-memory tile arena.

One :mod:`multiprocessing.shared_memory` segment per call holds a run's
tiles, one slot per factorization task of its DAG for the factor's V,
block-T and taus, and, for resilient runs, one write-set slot per
worker.  :class:`Arena` maps numpy views onto it: the tiles as a
:class:`~repro.tiles.TiledMatrix` the kernels run on, the factors as
:class:`~repro.kernels.geqrt.GEQRTResult` /
:class:`~repro.kernels.tsqrt.TSQRTResult` objects.  The manager creates
and fills it; workers inherit it under ``fork`` or attach by name under
``spawn`` (an arena pickles as its name and layout).
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..dag.tasks import Task, TaskKind
from ..kernels.geqrt import GEQRTResult
from ..kernels.tsqrt import TSQRTResult
from ..tiles import TiledMatrix
from .core_exec import factor_key, task_written_tiles
from .serial import TaskGraphRun

FACTOR_KINDS = frozenset({TaskKind.GEQRT, TaskKind.TSQRT, TaskKind.TTQRT})
_VIEWS = ("ctrl", "nbs", "tiled", "factors", "snaps")


class Arena:
    """One call's shared-memory segment and numpy views into it.

    Layout: int64 words (per worker its committed-task count and
    write-set mark, then each factor slot's block-T row count), then in
    the matrix dtype the tiles (``(p, q, b, b)``, or ``(p, b, q*b)``
    row-major), one slot per factorization task of the DAG (V and a
    block-T of up to ``b`` rows in Fortran order, then taus) and, when
    resilient, a write-set slot per worker.
    """

    def __init__(self, run: TaskGraphRun, workers: int, snapshots: bool):
        tiled, self.tasks, self.workers = run.tiled, run.dag.tasks, workers
        self.slots = {}
        for t in self.tasks:
            if t.kind in FACTOR_KINDS:
                self.slots[factor_key(t)] = (len(self.slots), t.kind)
        p, q, b = tiled.grid_rows, tiled.grid_cols, tiled.tile_size
        self.b, self.shape, self.dtype = b, tiled.shape, tiled.dtype
        self.grid = (p, b, q * b) if tiled.is_row_major else (p, q, b, b)
        self.snap_tiles = (2 * q if run.dag.batch_updates else 2) if snapshots else 0
        self.shm = SharedMemory(create=True, size=self._map(mapped=False))
        try:
            self._map()
            copy_tiles(tiled, self.tiled)
            for task, f in run.log:  # a resumed run's factors
                self.store(task, f)
        except BaseException:
            self.release()
            raise

    def _map(self, mapped: bool = True) -> int:
        """Map the views; returns the segment's size in bytes."""
        b, w, n = self.b, self.workers, len(self.slots)
        header = -(-8 * (2 * w + n) // 64) * 64
        sizes = [int(np.prod(self.grid)), n * (2 * b * b + b), w * self.snap_tiles * b * b]
        if mapped:
            buf = self.shm.buf
            ints = np.ndarray((2 * w + n,), np.int64, buffer=buf)
            self.ctrl, self.nbs = ints[: 2 * w].reshape(w, 2), ints[2 * w :]
            flat = np.ndarray((sum(sizes),), self.dtype, buffer=buf, offset=header)
            tiles, fac, snaps = np.split(flat, np.cumsum(sizes[:2]))
            self.tiled = TiledMatrix.over(tiles.reshape(self.grid), *self.shape)
            self.factors = fac.reshape(n, 2 * b * b + b)
            self.snaps = snaps.reshape(w, self.snap_tiles, b, b)
        return header + sum(sizes) * self.dtype.itemsize

    def __getstate__(self):
        state = {k: v for k, v in self.__dict__.items() if k not in _VIEWS}
        return {**state, "shm": self.shm.name}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.shm = SharedMemory(name=state["shm"])
        self._map()

    def store(self, task: Task, f):
        """Copy ``task``'s factor into its slot; returns the slot's view."""
        key = factor_key(task)
        self.nbs[self.slots[key][0]] = f.tf.shape[0]
        out = self.factor(key)
        v = out.v if task.kind is TaskKind.GEQRT else out.v2
        v[...] = f.v if task.kind is TaskKind.GEQRT else f.v2
        out.tf[...], out.taus[...] = f.tf, f.taus
        return out

    def factor(self, key: tuple, copy: bool = False):
        """The factor in ``key``'s slot, as views or private copies."""
        slot, kind = self.slots[key]
        b, nb, row = self.b, int(self.nbs[slot]), self.factors[slot]
        v = row[: b * b].reshape(b, b, order="F")
        tf = row[b * b : b * b + nb * b].reshape(nb, b, order="F")
        taus = row[2 * b * b :]
        if copy:
            v, tf, taus = v.copy(order="F"), tf.copy(order="F"), taus.copy()
        r = np.empty((b, 0), self.dtype)  # R lives in the tiles
        if kind is TaskKind.GEQRT:
            return GEQRTResult(r=r, v=v, tf=tf, taus=taus)
        return TSQRTResult(r=r, v2=v, tf=tf, taus=taus, kind="TT" if kind is TaskKind.TTQRT else "TS")

    def snapshot(self, w: int, mark: int, written: list) -> np.ndarray:
        """Save a task's write set in worker ``w``'s slot, marked
        ``mark``; returns the saved copies."""
        self.ctrl[w, 1] = 0
        saved = self.snaps[w][: len(written)]
        for copy, tile in zip(saved, written):
            copy[...] = tile
        self.ctrl[w, 1] = mark
        return saved

    def restore(self, w: int, task: Task) -> None:
        for saved, tile in zip(self.snaps[w], task_written_tiles(task, self.tiled)):
            tile[...] = saved

    def detach(self) -> None:
        """Drop the views and unmap the segment (it stays linked)."""
        for view in _VIEWS:
            setattr(self, view, None)
        try:
            self.shm.close()
        except BufferError:  # a view outlived the call; the mapping goes with it
            pass

    def release(self) -> None:
        """Unmap and unlink the segment (manager side)."""
        self.detach()
        self.shm.unlink()


def copy_tiles(src: TiledMatrix, dst: TiledMatrix) -> None:
    for i, j, tile in src.iter_tiles():
        dst.tile(i, j)[...] = tile


class ArenaFactors(dict):
    """A worker's factor store: a missing key is read from its arena slot."""

    def __init__(self, arena: Arena):
        super().__init__()
        self.arena = arena

    def __missing__(self, key):
        f = self[key] = self.arena.factor(key)
        return f
