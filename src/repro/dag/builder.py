"""Build the tiled-QR task DAG (paper Fig. 3).

Dependencies are derived, not hand-coded: tasks are emitted in the
algorithm's canonical sequential order and every task declares which data
objects (tiles, reflector factors) it reads and writes; read-after-write,
write-after-write and write-after-read orderings then induce exactly the
DAG of Fig. 3.  This makes the builder trivially correct for *every*
within-panel annihilation order: the elimination tree
(:mod:`repro.dag.trees`) only decides which rows get their own GEQRT and
the ordered ``(bot, top)`` merge list per panel — any valid order yields
a correct DAG automatically.

The registered trees are ``flat`` (the paper's sequential TS chain,
alias ``"TS"``), ``flat-tt``, ``binary`` (log-round pairwise reduction,
alias ``"TT"``), ``fibonacci`` and ``greedy`` — see
:mod:`repro.dag.trees` for their shapes and arXiv:1104.4475 for the
critical-path analysis.

Every tree is static, so a DAG depends on its shape alone:
:func:`build_dag` returns one immutable :class:`TiledQRDag` per
``(p, q, tree, batch_updates)`` from a bounded cache.  A DAG stores its
tasks in emission order — a task's integer *id* is its position — and
the dependence structure as CSR (compressed sparse row) id arrays, so
the runtimes schedule by id and never hash a :class:`Task`.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from ..errors import DAGError
from .tasks import Step, Task, TaskKind
from .trees import EliminationTree, canonical_tree, resolve_tree

# Data-object keys: ("t", i, j) a tile; ("Vg", i, k) GEQRT factors of tile
# (i, k); ("Ve", i, k) elimination factors that zeroed tile (i, k).
_Key = tuple

#: Task budget of :func:`build_dag`'s cache: it keeps the most recently
#: used DAGs whose tasks total at most this many (about 40 MB at ~400 B
#: per task), so repeated shapes cost nothing and a sweep over large
#: grids does not pin every DAG it built.
DAG_CACHE_TASKS = 100_000


class _AccessTracker:
    """Sequential-consistency dependence inference over data objects,
    by task id."""

    def __init__(self):
        self._last_writer: dict[_Key, int] = {}
        self._readers_since: dict[_Key, list[int]] = {}

    def record(self, tid: int, reads: Iterable[_Key], writes: Iterable[_Key]) -> set[int]:
        last_writer = self._last_writer
        readers = self._readers_since
        deps: set[int] = set()
        for key in reads:
            w = last_writer.get(key)
            if w is not None:
                deps.add(w)
        for key in writes:
            w = last_writer.get(key)
            if w is not None:
                deps.add(w)
            deps.update(readers.get(key, ()))
            last_writer[key] = tid
            readers[key] = []
        written = set(writes)
        for key in reads:
            if key not in written:
                readers.setdefault(key, []).append(tid)
        return deps


def _task_accesses(task: Task) -> tuple[list[_Key], list[_Key]]:
    """(reads, writes) of a task; read-write tiles appear in both lists.

    A batched update accesses exactly the union of its expansion's tiles,
    so the dependencies a fused DAG derives are the per-tile DAG's edges
    collapsed onto the coarsened tasks — never weaker, never spuriously
    stronger (tested by expansion equivalence in the batched test suite).
    """
    k = task.k
    if task.kind is TaskKind.GEQRT:
        t = ("t", task.row, k)
        return [t], [t, ("Vg", task.row, k)]
    if task.kind is TaskKind.UNMQR:
        t = ("t", task.row, task.col)
        return [("Vg", task.row, k), t], [t]
    if task.kind is TaskKind.UNMQR_BATCH:
        tiles = [("t", task.row, j) for j in range(task.col, task.col_end)]
        return [("Vg", task.row, k), *tiles], tiles
    if task.kind in (TaskKind.TSQRT, TaskKind.TTQRT):
        top = ("t", task.row2, k)
        bot = ("t", task.row, k)
        return [top, bot], [top, bot, ("Ve", task.row, k)]
    if task.kind in (TaskKind.TSMQR_BATCH, TaskKind.TTMQR_BATCH):
        pairs = [
            ("t", r, j)
            for j in range(task.col, task.col_end)
            for r in (task.row2, task.row)
        ]
        return [("Ve", task.row, k), *pairs], pairs
    # TSMQR / TTMQR
    top = ("t", task.row2, task.col)
    bot = ("t", task.row, task.col)
    return [("Ve", task.row, k), top, bot], [top, bot]


#: Public alias — the simulator reuses the same access rules the builder
#: derives dependencies from, so the two can never disagree.
task_accesses = _task_accesses


def _csr(lists: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(ptr, idx)`` with ``lists[i] == idx[ptr[i]:ptr[i + 1]]``."""
    return (0, *accumulate(map(len, lists))), tuple(chain.from_iterable(lists))


class TiledQRDag:
    """The full task DAG of one tiled QR factorization; immutable.

    Tasks are stored in a valid topological (sequential-algorithm) order,
    and a task's *id* is its position in :attr:`tasks`.

    Parameters
    ----------
    grid_rows, grid_cols:
        Tile-grid shape ``(p, q)``.
    elimination:
        An elimination-tree name or alias (see :mod:`repro.dag.trees`):
        ``"flat"``/``"TS"``, ``"flat-tt"``, ``"binary"``/``"TT"``,
        ``"fibonacci"`` or ``"greedy"``.  Stored canonicalized in
        :attr:`elimination`; the resolved tree object is :attr:`tree`.
    batch_updates:
        When True, all updates sharing one reflector factor across a tile
        row are emitted as a single coarsened ``UNMQR_BATCH`` /
        ``TSMQR_BATCH`` / ``TTMQR_BATCH`` task spanning columns
        ``[k+1, q)`` instead of ``q-k-1`` per-tile tasks.  Expanding every
        batched task (:meth:`~repro.dag.tasks.Task.expand`) recovers
        exactly the unfused DAG's task multiset.

    Attributes
    ----------
    tasks:
        Tuple of :class:`Task` in emission order.
    pred_ptr, pred_idx, succ_ptr, succ_idx:
        The dependence structure as CSR id arrays: task ``i``'s
        predecessor ids are ``pred_idx[pred_ptr[i]:pred_ptr[i + 1]]``
        (likewise successors), ascending.  See :meth:`pred_ids` /
        :meth:`succ_ids`.
    indegree:
        Predecessor count per task id.
    preds, succs:
        Read-only ``Task -> frozenset[Task]`` views of the same
        structure, built on first access.

    Use :func:`build_dag` to share one instance per shape; constructing
    the class directly always builds a fresh DAG.
    """

    def __init__(
        self,
        grid_rows: int,
        grid_cols: int,
        elimination: str = "TS",
        batch_updates: bool = False,
    ):
        if grid_rows < 1 or grid_cols < 1:
            raise DAGError(f"grid must be at least 1x1, got {grid_rows}x{grid_cols}")
        self.tree: EliminationTree = resolve_tree(elimination)
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        self.elimination = self.tree.name
        self.batch_updates = batch_updates
        self._freeze(self._emission())

    def __setattr__(self, name, value):
        if "_lazy" in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__} is immutable (build_dag shares one per shape)"
            )
        object.__setattr__(self, name, value)

    # -- construction ---------------------------------------------------

    def accesses(self, task: Task) -> tuple[list[_Key], list[_Key]]:
        """(reads, writes) of a task — overridable by DAG subclasses with
        different data semantics (e.g. the solve DAG)."""
        return _task_accesses(task)

    def _freeze(self, emission: Iterable[Task]) -> None:
        """Derive the dependencies of ``emission`` and store the DAG."""
        tracker = _AccessTracker()
        tasks: list[Task] = []
        preds: list[list[int]] = []
        succs: list[list[int]] = []
        for tid, task in enumerate(emission):
            deps = sorted(tracker.record(tid, *self.accesses(task)))
            tasks.append(task)
            preds.append(deps)
            succs.append([])
            for d in deps:
                succs[d].append(tid)  # ids rise, so each list stays sorted
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.pred_ptr, self.pred_idx = _csr(preds)
        self.succ_ptr, self.succ_idx = _csr(succs)
        self.indegree: tuple[int, ...] = tuple(map(len, preds))
        self._lazy: dict = {}  # last attribute set: the DAG is frozen from here

    def _emission(self) -> Iterator[Task]:
        """The tasks in the algorithm's sequential order."""
        p, q = self.grid_rows, self.grid_cols
        panel = self._panel_tt if self.tree.uses_tt else self._panel_ts
        for k in range(min(p, q)):
            yield from panel(k, p, q)

    def _updates(
        self, kind: TaskKind, batch_kind: TaskKind, k: int, row: int, row2: int, q: int
    ) -> Iterator[Task]:
        """The trailing-column updates of one factor: per-tile tasks
        normally, one coarsened task under ``batch_updates``."""
        if k + 1 >= q:
            return
        if self.batch_updates:
            yield Task(batch_kind, k, row, row2, k + 1, q)
        else:
            for j in range(k + 1, q):
                yield Task(kind, k, row, row2, j)

    def _panel_ts(self, k: int, p: int, q: int) -> Iterator[Task]:
        yield Task(TaskKind.GEQRT, k, k, k, k)
        yield from self._updates(TaskKind.UNMQR, TaskKind.UNMQR_BATCH, k, k, k, q)
        for bot, top in self.tree.pairs(k, p):
            yield Task(TaskKind.TSQRT, k, bot, top, k)
            yield from self._updates(TaskKind.TSMQR, TaskKind.TSMQR_BATCH, k, bot, top, q)

    def _panel_tt(self, k: int, p: int, q: int) -> Iterator[Task]:
        for i in self.tree.geqrt_rows(k, p):
            yield Task(TaskKind.GEQRT, k, i, i, k)
            yield from self._updates(TaskKind.UNMQR, TaskKind.UNMQR_BATCH, k, i, i, q)
        for bot, top in self.tree.pairs(k, p):
            yield Task(TaskKind.TTQRT, k, bot, top, k)
            yield from self._updates(TaskKind.TTMQR, TaskKind.TTMQR_BATCH, k, bot, top, q)

    # -- id structure -----------------------------------------------------

    def pred_ids(self, tid: int) -> tuple[int, ...]:
        """Predecessor ids of task ``tid``, ascending."""
        return self.pred_idx[self.pred_ptr[tid] : self.pred_ptr[tid + 1]]

    def succ_ids(self, tid: int) -> tuple[int, ...]:
        """Successor ids of task ``tid``, ascending."""
        return self.succ_idx[self.succ_ptr[tid] : self.succ_ptr[tid + 1]]

    def _cached(self, key, make):
        value = self._lazy.get(key)
        if value is None:
            value = self._lazy[key] = make()
        return value

    @property
    def index(self) -> Mapping[Task, int]:
        """Read-only ``Task -> id`` map, built on first access."""
        return self._cached(
            "index", lambda: MappingProxyType({t: i for i, t in enumerate(self.tasks)})
        )

    def _task_view(self, ids: Callable[[int], tuple[int, ...]]) -> Mapping:
        tasks = self.tasks
        return MappingProxyType(
            {t: frozenset(tasks[j] for j in ids(i)) for i, t in enumerate(tasks)}
        )

    @property
    def preds(self) -> Mapping[Task, frozenset[Task]]:
        """Read-only ``Task -> frozenset`` of its predecessors."""
        return self._cached("preds", lambda: self._task_view(self.pred_ids))

    @property
    def succs(self) -> Mapping[Task, frozenset[Task]]:
        """Read-only ``Task -> frozenset`` of its successors."""
        return self._cached("succs", lambda: self._task_view(self.succ_ids))

    def bottom_levels(self, weight: Callable[[Task], float] | None = None) -> list[float]:
        """Per-id bottom-level rank: the weighted length of the longest
        path from the task to any sink, the task included (see
        :func:`~repro.dag.analysis.bottom_level_ranks`)."""
        w = weight if weight is not None else (lambda _t: 1.0)
        tasks, ptr, idx = self.tasks, self.succ_ptr, self.succ_idx
        ranks = [0.0] * len(tasks)
        for i in range(len(tasks) - 1, -1, -1):  # reverse topological
            succ = idx[ptr[i] : ptr[i + 1]]
            tail = max(map(ranks.__getitem__, succ)) if succ else 0.0
            ranks[i] = w(tasks[i]) + tail
        return ranks

    def priority(self, tile_size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The critical-path schedule order at tile edge ``tile_size``.

        Returns ``(order, position)``: ``order`` lists the task ids by
        descending flop-weighted bottom-level rank
        (:func:`~repro.dag.analysis.task_weight_model`), emission order
        breaking ties, and ``position[i]`` is task ``i``'s place in it —
        so a ready heap of positions pops the highest-rank task first.
        Computed once per tile size, then kept.
        """
        return self._cached(("priority", tile_size), lambda: self._priority(tile_size))

    def _priority(self, tile_size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        from .analysis import task_weight_model

        ranks = self.bottom_levels(task_weight_model(tile_size))
        # A stable descending sort keeps equal ranks in emission order.
        order = sorted(range(len(ranks)), key=ranks.__getitem__, reverse=True)
        position = [0] * len(order)
        for pos, tid in enumerate(order):
            position[tid] = pos
        return tuple(order), tuple(position)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def sources(self) -> list[Task]:
        """Tasks with no predecessors (ready at time zero)."""
        return [t for t, n in zip(self.tasks, self.indegree) if n == 0]

    def sinks(self) -> list[Task]:
        """Tasks with no successors."""
        ptr = self.succ_ptr
        return [t for i, t in enumerate(self.tasks) if ptr[i] == ptr[i + 1]]

    def panel_tasks(self, k: int) -> list[Task]:
        """All tasks of panel ``k`` in emission order."""
        return [t for t in self.tasks if t.k == k]

    def count_by_step(self) -> dict[Step, int]:
        """Number of tasks per paper step over the whole DAG."""
        out = {s: 0 for s in Step}
        for t in self.tasks:
            out[t.step] += 1
        return out

    def validate_completed(self, completed: Iterable[Task]) -> frozenset[int]:
        """Check that ``completed`` is a sound partial execution state and
        return its task ids.

        Every completed task must belong to this DAG and have all of its
        predecessors completed (downward closure) — otherwise the state
        cannot have arisen from any legal execution and resuming from it
        would silently compute garbage.
        """
        index = self.index
        done = set()
        for t in completed:
            tid = index.get(t)
            if tid is None:
                raise DAGError(f"completed task {t} is not in this DAG")
            done.add(tid)
        for tid in sorted(done):
            missing = [d for d in self.pred_ids(tid) if d not in done]
            if missing:
                raise DAGError(
                    f"completed set is not closed under dependencies: "
                    f"{self.tasks[tid]} done but predecessor "
                    f"{self.tasks[missing[0]]} is not"
                )
        return frozenset(done)

    def frontier(self, completed: Iterable[Task]) -> list[Task]:
        """Tasks ready to run given a completed set (in emission order).

        The execution frontier of a partial factorization: every
        not-yet-completed task whose predecessors have all completed.
        Checkpoint resume seeds the runtimes from exactly this set.
        """
        index = self.index
        done = {index[t] for t in completed if t in index}
        return [
            t
            for i, t in enumerate(self.tasks)
            if i not in done and all(d in done for d in self.pred_ids(i))
        ]

    def validate(self) -> None:
        """Cheap structural self-check (used by tests).

        Verifies that task ids are unique, that the emission order is
        topological and that the predecessor and successor arrays
        describe the same edges.
        """
        n = len(self.tasks)
        if len(self.index) != n:
            raise DAGError("duplicate tasks in DAG")
        if self.indegree != tuple(len(self.pred_ids(i)) for i in range(n)):
            raise DAGError("in-degrees disagree with the predecessor arrays")
        edges = set()
        for i in range(n):
            for d in self.pred_ids(i):
                if d >= i:
                    raise DAGError(f"dependency {self.tasks[d]} does not precede {self.tasks[i]}")
                edges.add((d, i))
        if edges != {(i, s) for i in range(n) for s in self.succ_ids(i)}:
            raise DAGError("predecessor and successor arrays describe different edges")


_cache: OrderedDict[tuple, TiledQRDag] = OrderedDict()
_cache_lock = threading.Lock()


def build_dag(
    grid_rows: int,
    grid_cols: int,
    elimination: str = "TS",
    batch_updates: bool = False,
) -> TiledQRDag:
    """The immutable :class:`TiledQRDag` of one shape, shared.

    Built on the first request for ``(grid_rows, grid_cols, tree,
    batch_updates)`` (tree names and aliases canonicalized) and served
    from a least-recently-used cache of at most :data:`DAG_CACHE_TASKS`
    tasks afterwards; a DAG larger than that is built on every request.
    """
    key = (
        operator.index(grid_rows),
        operator.index(grid_cols),
        canonical_tree(elimination),
        bool(batch_updates),
    )
    with _cache_lock:
        dag = _cache.get(key)
        if dag is not None:
            _cache.move_to_end(key)
            return dag
    dag = TiledQRDag(*key)
    with _cache_lock:
        dag = _cache.setdefault(key, dag)  # a concurrent build may have won
        _cache.move_to_end(key)
        total = sum(map(len, _cache.values()))
        while total > DAG_CACHE_TASKS:
            total -= len(_cache.popitem(last=False)[1])
    return dag
