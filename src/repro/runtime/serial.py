"""The task-graph executor shared by the in-process runtimes.

One loop runs the tiled-QR DAG for :class:`SerialRuntime` and
:class:`~repro.runtime.threaded.ThreadedRuntime` alike.
:class:`TaskGraphRun` coerces the input, builds the DAG, seeds a resumed
run's factor store, keeps the rank-ordered ready heap and the completion
accounting, and writes the periodic checkpoints; :class:`TaskGraphRuntime`
publishes ``run.start``/``run.finish`` around it.  The two runtimes
differ only in *dispatch policy* — how ready tasks reach
:meth:`TaskGraphRun.execute`: the serial runtime runs each one inline on
the caller's thread, the threaded runtime hands them to a worker pool.

Ready tasks pop highest bottom-level rank first (see
:func:`repro.dag.analysis.bottom_level_ranks`), with the DAG emission
order as the deterministic tie-break.  Any topological order produces a
bit-identical R (unordered tasks touch disjoint tile rows), so the
priority order changes nothing numerically — but every runtime executes
the schedule shape the simulator prefers, and mid-run checkpoints stay
frontier-shaped the way a parallel resume expects.

The DAG comes from :func:`repro.dag.build_dag`'s per-shape cache, with
the priority order computed once per tile size
(:meth:`~repro.dag.builder.TiledQRDag.priority`).  All bookkeeping runs
on task ids: the ready heap holds each task's int position in that
order, and completions decrement a copy of the DAG's in-degree list
through its CSR successor arrays.  :class:`~repro.dag.tasks.Task`
objects appear only where a task leaves the loop — kernels, the factor
log, ``completed_order``, checkpoints, traces and events.

Every runtime — :class:`~repro.runtime.multiprocess.MultiprocessRuntime`
included — takes its settings as one frozen :class:`RunOptions` and
inherits the failure-bundle ``factorize`` wrapper from :class:`Runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from typing import Any

import numpy as np

from ..config import DEFAULT_TILE_SIZE
# The layer ledger's traced mode patches these two names on this module;
# ``build_dag`` is looked up here on every run.
from ..dag import build_dag
from ..dag.analysis import bottom_level_ranks  # noqa: F401
from ..dag.trees import canonical_tree
from ..errors import ConfigError, ShapeError, SimulationError
from ..kernels.backends import resolve_backend
from ..kernels.workspace import Workspace, drain_fallbacks
from ..tiles import TiledMatrix
from .blas import blas_threads
from .core_exec import Factors, apply_task, apply_task_resilient, factor_key
from .factorization import TiledQRFactorization


def resolve_policy(retry_policy, chaos, health_checks):
    """The effective retry policy, or None when the plain path suffices.

    An explicit policy always wins; chaos or health checks without one
    get the default policy (injected faults are meant to be *masked*,
    which takes retries).  With none of the three, the runtimes skip the
    resilience envelope entirely — zero overhead on the default path.
    """
    if retry_policy is not None:
        return retry_policy
    if chaos is not None or health_checks:
        from ..resilience import DEFAULT_RETRY_POLICY

        return DEFAULT_RETRY_POLICY
    return None


@dataclass(frozen=True)
class RunOptions:
    """The settings every runtime takes, as keywords of its constructor.

    Attributes
    ----------
    elimination:
        Elimination-tree name or alias (see :mod:`repro.dag.trees`):
        ``"flat"``/``"TS"`` (paper default), ``"flat-tt"``,
        ``"binary"``/``"TT"``, ``"fibonacci"`` or ``"greedy"``; stored
        canonical.
    tracer:
        Optional :class:`repro.observability.Tracer`; every kernel is
        recorded as a span under the device that ran it.
    batch_updates:
        Run coarsened row-panel update tasks (``UNMQR_BATCH`` /
        ``TSMQR_BATCH``): one set of wide GEMMs per reflector factor per
        tile row.  Results match the per-tile path (see
        ``docs/PERFORMANCE.md``).
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy`; a task that fails
        retryably is replayed from snapshots of the tiles it writes.
        ``chaos`` or ``health_checks`` without one get the default policy.
    chaos:
        Optional :class:`repro.resilience.FaultPlan` or
        :class:`~repro.resilience.ChaosEngine`.  The in-process runtimes
        use an engine as given and build one per run from a plan (on the
        run's metrics, tracer and bus); the multiprocess runtime ships
        the plan to every worker.
    health_checks:
        NaN/Inf-check every task's written tiles after the kernel;
        failures raise :class:`~repro.errors.NumericalHealthError` and go
        through the retry policy.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry` receiving
        the ``resilience.*`` and ``kernel.workspace.fallbacks`` counters.
    checkpoint_every / checkpoint_path:
        When both are set, write an atomic partial snapshot (format 2,
        see :mod:`repro.runtime.checkpoint`) after every
        ``checkpoint_every`` completed tasks, at a quiescent frontier;
        ``resume_factorization`` finishes such a run on any runtime.
    backend:
        Kernel backend — a registered name, a
        :class:`~repro.kernels.backends.KernelBackend` object, or
        ``None`` for ``reference``.  Resolved here, so unknown names fail
        at construction.  Threaded workers share the object (it must be
        thread-safe); multiprocess workers resolve it by name.
    bus:
        Optional :class:`repro.observability.TelemetryBus`; the run
        publishes live ``run.start``/``task.start``/``task.finish``/
        ``retry``/``checkpoint``/``run.finish`` events (see
        ``docs/OBSERVABILITY.md``, "Live telemetry").  ``None`` publishes
        nothing and costs nothing.
    bundle_out:
        Optional path: when a terminal error escapes ``factorize``, an
        atomic failure bundle (flight-recorder tail, in-flight tasks,
        metrics, fault plan, checkpoint pointer) is written there before
        the exception propagates — see :mod:`repro.observability.postmortem`.
    """

    elimination: str = "TS"
    tracer: Any = None
    batch_updates: bool = False
    retry_policy: Any = None
    chaos: Any = None
    health_checks: bool = False
    metrics: Any = None
    checkpoint_every: int | None = None
    checkpoint_path: Any = None
    backend: Any = None
    bus: Any = None
    bundle_out: Any = None

    def __post_init__(self):
        object.__setattr__(self, "elimination", canonical_tree(self.elimination))
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    @property
    def policy(self):
        """The effective retry policy (see :func:`resolve_policy`)."""
        return resolve_policy(self.retry_policy, self.chaos, self.health_checks)

    @property
    def active_tracer(self):
        """``tracer`` when it is enabled, else ``None``."""
        return self.tracer if self.tracer is not None and self.tracer.enabled else None

    @property
    def fault_plan(self):
        """The :class:`~repro.resilience.FaultPlan` behind ``chaos``."""
        from ..resilience import ChaosEngine

        return self.chaos.plan if isinstance(self.chaos, ChaosEngine) else self.chaos


def coerce_input(a, tile_size: int, storage: str = "tiles"):
    """Shared input handling: returns ``(tiled, shape)``.

    A :class:`TiledMatrix` (e.g. a resume snapshot's tiles) passes
    through unscanned.  A dense input must be a non-empty, finite, real
    numeric ``m x n`` matrix with ``m >= n``; anything else fails first.
    """
    if isinstance(a, TiledMatrix):
        return a, a.shape
    arr = np.asarray(a)
    if arr.dtype.kind not in "biuf":
        raise ConfigError(f"tiled QR takes real numeric input, got dtype {arr.dtype}")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ConfigError(f"tiled QR needs a non-empty matrix, got shape {arr.shape}")
    if arr.shape[0] < arr.shape[1]:
        raise ShapeError(f"QR requires m >= n, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError("input matrix contains NaN or Inf entries")
    return TiledMatrix.from_dense(arr, tile_size, storage=storage), arr.shape


def check_resume_state(resume, dag, tiled, elimination: str, batch_updates: bool):
    """Validate a :class:`~repro.runtime.checkpoint.PartialState` against
    the runtime's DAG and return the ids of its completed tasks.

    Raises :class:`~repro.runtime.checkpoint.CheckpointError` when the
    snapshot was taken under a different DAG configuration (resuming
    would re-apply work already in the tiles) and
    :class:`~repro.errors.DAGError` when the completed set is not a
    legal execution state.
    """
    from .checkpoint import CheckpointError

    # Canonicalize both sides so legacy "TS"/"TT" snapshots resume under
    # runtimes configured with the new tree names (and vice versa); a
    # genuine tree mismatch — e.g. resuming a GREEDY run as BINARY —
    # still fails loudly.
    snap_tree = canonical_tree(resume.elimination)
    run_tree = canonical_tree(elimination)
    if snap_tree != run_tree or resume.batch_updates != batch_updates:
        raise CheckpointError(
            f"snapshot was taken with elimination tree {snap_tree!r} "
            f"batch_updates={resume.batch_updates}, but the runtime is "
            f"configured for tree {run_tree!r} "
            f"batch_updates={batch_updates}"
        )
    snap = resume.tiled
    if (snap.grid_rows, snap.grid_cols) != (tiled.grid_rows, tiled.grid_cols):
        raise CheckpointError(
            f"snapshot grid {snap.grid_rows}x{snap.grid_cols} does not "
            f"match the target matrix grid {tiled.grid_rows}x{tiled.grid_cols}"
        )
    if tuple(resume.shape) != tuple(tiled.shape):
        raise CheckpointError(
            f"snapshot factors a {resume.shape[0]}x{resume.shape[1]} matrix, "
            f"but the target is {tiled.shape[0]}x{tiled.shape[1]}"
        )
    return dag.validate_completed(resume.completed)


class _CheckpointWriter:
    """Periodic partial-snapshot writer shared by the runtimes.

    Counts newly completed tasks and, every ``every`` completions,
    writes an atomic format-2 snapshot to ``path``.  Call only at
    quiescent points (the caller guarantees no task is in flight).
    """

    def __init__(
        self, every, path, dag, tiled, shape, metrics=None, tracer=None, bus=None
    ):
        if every is not None and every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {every}")
        self.every = every
        self.path = path
        self.dag = dag
        self.tiled = tiled
        self.shape = shape
        self.metrics = metrics
        self.tracer = tracer
        self.bus = bus
        self._since = 0
        self.enabled = every is not None and path is not None

    def task_done(self) -> bool:
        """Count one completion; True when a snapshot is now due."""
        if not self.enabled:
            return False
        self._since += 1
        return self._since >= self.every

    def write(self, completed, log, device: str = "local") -> None:
        from .checkpoint import save_partial_factorization

        save_partial_factorization(
            self.path,
            self.tiled,
            completed,
            log,
            self.shape,
            self.dag.elimination,
            self.dag.batch_updates,
        )
        self._since = 0
        if self.metrics is not None:
            self.metrics.counter("resilience.checkpoints").inc()
        if self.tracer is not None:
            self.tracer.record_annotation(
                "checkpoint",
                f"{len(completed)}/{len(self.dag.tasks)} tasks -> {self.path}",
                device,
            )
        if self.bus is not None:
            self.bus.publish(
                "checkpoint",
                device,
                {
                    "completed": len(completed),
                    "total": len(self.dag.tasks),
                    "path": str(self.path),
                },
            )


class Runtime:
    """Base of the three runtimes: one :class:`RunOptions` (``options``)
    and the failure-bundle ``factorize`` wrapper.

    Subclasses implement ``_factorize(a, tile_size, resume, options)``.
    """

    name = "runtime"
    #: Device id under which ``run.start``/``run.finish`` are published.
    manager = "manager"
    #: The distribution plan, for runtimes that follow one.
    plan = None

    def __init__(self, **options):
        self.options = RunOptions(**options)

    def factorize(
        self, a, tile_size: int | None = None, resume=None
    ) -> TiledQRFactorization:
        """Tiled QR factorization of a dense or tiled matrix.

        Parameters
        ----------
        a:
            Dense ``m x n`` array (``m >= n``, finite, real) or a
            :class:`repro.tiles.TiledMatrix` (consumed: tiles mutated).
        tile_size:
            Tile edge when ``a`` is dense (ignored otherwise); defaults
            to the plan's tile size, or ``DEFAULT_TILE_SIZE`` without a
            plan.
        resume:
            Optional :class:`~repro.runtime.checkpoint.PartialState`;
            completed tasks are skipped and the reflector log is seeded
            from the snapshot (``a`` should be the snapshot's tiles —
            use :func:`~repro.runtime.checkpoint.resume_factorization`).

        With ``bundle_out`` set, the run publishes to a flight recorder's
        bus (the caller's bus, or a private one) and a terminal error
        writes a failure bundle before it propagates; the runtime's own
        options are never modified.
        """
        if tile_size is None:
            tile_size = DEFAULT_TILE_SIZE if self.plan is None else self.plan.tile_size
        opts = self.options
        if opts.bundle_out is None:
            return self._factorize(a, tile_size, resume, opts)
        from ..observability.postmortem import BundleCapture

        meta = {
            "runtime": self.name,
            **self._describe(),
            "elimination": opts.elimination,
            "batch_updates": opts.batch_updates,
            "backend": opts.backend.name,
            "tile_size": tile_size,
        }
        if opts.retry_policy is not None:
            meta["retry_policy"] = opts.retry_policy.to_dict()
        capture = BundleCapture(
            opts.bundle_out,
            bus=opts.bus,
            metrics=opts.metrics,
            plan=self.plan,
            fault_plan=opts.fault_plan,
            checkpoint_path=opts.checkpoint_path,
            meta=meta,
        )
        try:
            return self._factorize(a, tile_size, resume, replace(opts, bus=capture.bus))
        except BaseException as exc:
            capture.capture(exc)
            raise
        finally:
            capture.close()

    def _describe(self) -> dict:
        """Runtime-specific fields for ``run.start`` and bundle meta."""
        return {}

    def _run_started(self, bus, dag, tiled, **extra) -> None:
        """Publish ``run.start`` (nothing without a bus)."""
        if bus is not None:
            bus.publish(
                "run.start",
                self.manager,
                {
                    "runtime": self.name,
                    "total_tasks": len(dag.tasks),
                    "total_units": sum(t.ncols for t in dag.tasks),
                    "grid": [tiled.grid_rows, tiled.grid_cols],
                    "tile_size": tiled.tile_size,
                    **self._describe(),
                    **extra,
                },
            )

    def _run_finished(self, bus, **data) -> None:
        """Publish ``run.finish`` and drain the bus, so subscribers have
        seen everything when ``factorize`` returns."""
        if bus is not None:
            bus.publish("run.finish", self.manager, data)
            bus.drain()


class TaskGraphRun:
    """One task-graph factorization in flight: the state every dispatch
    policy shares.

    A policy drives it with :meth:`pop` (``(task id, task)`` of the
    highest-rank ready task), :meth:`execute` (one kernel with its span,
    events and retry envelope), :meth:`complete` (release successors by
    id; True when a checkpoint is due) and :meth:`checkpoint`.  Nothing
    here locks: a concurrent policy serializes :meth:`pop`,
    :meth:`complete` and :meth:`checkpoint` itself and runs
    :meth:`execute` unlocked.

    ``split`` optionally maps a ready batched task to column chunks that
    are queued separately under the batch's id; the batch completes
    with its last chunk.  A snapshot must not hold a batch some of whose
    chunks ran: once a checkpoint is due, a policy stops popping, runs
    the chunks :meth:`pop_begun` still hands out, and checkpoints when
    none is left and nothing is in flight.
    """

    def __init__(self, a, tile_size: int, resume, opts: RunOptions, split=None):
        if a is None and resume is not None:
            a = resume.tiled
        tiled, self.shape = coerce_input(
            a, tile_size, "rowmajor" if opts.batch_updates else "tiles"
        )
        dag = build_dag(
            tiled.grid_rows, tiled.grid_cols, opts.elimination, opts.batch_updates
        )
        self.tiled, self.dag = tiled, dag
        self.factors: dict[tuple, Factors] = {}
        self.log: list = []
        self.completed_order: list = []
        done_ids = frozenset()
        if resume is not None:
            done_ids = check_resume_state(
                resume, dag, tiled, opts.elimination, opts.batch_updates
            )
            self.completed_order = list(resume.completed)
            self.log = list(resume.log)
            for task, f in self.log:
                self.factors[factor_key(task)] = f
        self.total = len(dag.tasks)
        self.done = len(done_ids)
        self.workspaces: list[Workspace] = []

        self.backend = opts.backend
        self.metrics = opts.metrics
        self.bus = opts.bus
        self.tracer = opts.active_tracer
        self.policy = opts.policy
        self.health = opts.health_checks
        self.ref_norm = None
        if opts.health_checks:
            from ..resilience.health import tiled_frobenius_norm

            self.ref_norm = tiled_frobenius_norm(tiled)
        self.chaos = opts.chaos
        if self.chaos is not None:
            from ..resilience import ChaosEngine

            if not isinstance(self.chaos, ChaosEngine):
                self.chaos = ChaosEngine(
                    self.chaos, metrics=opts.metrics, tracer=self.tracer, bus=opts.bus
                )
        self.checkpoints = _CheckpointWriter(
            opts.checkpoint_every, opts.checkpoint_path, dag, tiled, self.shape,
            opts.metrics, self.tracer, opts.bus,
        )

        # The ready heap holds each task's position in the DAG's priority
        # order: highest bottom-level rank first, emission order breaking
        # ties.  Chunks of one batch share its position and pop in
        # column order from ``_chunks``.
        self._order, self._position = dag.priority(tiled.tile_size)
        self._tasks = dag.tasks
        self._succ_ptr, self._succ_idx = dag.succ_ptr, dag.succ_idx
        self.split = split
        self._split = split if dag.batch_updates else None
        self._chunks: dict[int, list] = {}  # chunks not yet popped
        self._chunks_left: dict[int, int] = {}  # chunks not yet completed
        self._nchunks: dict[int, int] = {}  # chunks the batch was cut into
        waiting = list(dag.indegree)
        for tid in done_ids:
            for succ in dag.succ_ids(tid):
                waiting[succ] -= 1
        self._waiting = waiting
        self._heap: list[int] = []
        for tid, left in enumerate(waiting):
            if left == 0 and tid not in done_ids:
                self._release(tid)

    def _release(self, tid: int) -> None:
        pos = self._position[tid]
        if self._split is not None:
            chunks = self._split(self._tasks[tid])
            if len(chunks) > 1:
                self._chunks[tid] = chunks[::-1]  # popped from the end
                self._chunks_left[tid] = self._nchunks[tid] = len(chunks)
                for _ in chunks:
                    heappush(self._heap, pos)
                return
        heappush(self._heap, pos)

    def pop(self):
        """``(task id, task)`` of the highest-rank ready task — under
        ``split``, possibly one chunk of a batch — or None when none is
        ready."""
        if not self._heap:
            return None
        tid = self._order[heappop(self._heap)]
        chunks = self._chunks.get(tid) if self._chunks else None
        if chunks is None:
            return tid, self._tasks[tid]
        task = chunks.pop()
        if not chunks:
            del self._chunks[tid]
        return tid, task

    def pop_begun(self):
        """``(task id, chunk)`` of a chunk not yet popped of a batch
        that has other chunks popped, or None: the only work a policy
        may start while a checkpoint waits."""
        for tid, chunks in self._chunks.items():
            if len(chunks) < self._nchunks[tid]:
                self._heap.remove(self._position[tid])
                heapify(self._heap)
                task = chunks.pop()
                if not chunks:
                    del self._chunks[tid]
                return tid, task
        return None

    def workspace(self) -> Workspace:
        """A fresh per-worker scratch arena (fallbacks drained at the end)."""
        ws = Workspace()
        self.workspaces.append(ws)
        return ws

    def execute(self, task, workspace: Workspace, device: str):
        """Run one task's kernel under its tracer span and bus events,
        through the retry envelope when a policy is in force; returns
        the factors it produced (``None`` for updates)."""
        bus = self.bus
        if bus is not None:
            t0 = bus.clock()
            bus.task_start(task, device, t=t0)
        if self.tracer is None:
            produced = self._apply(task, workspace, device)
        else:
            b = self.tiled.tile_size
            with self.tracer.task_span(task, device=device, tile_size=b):
                produced = self._apply(task, workspace, device)
        if bus is not None:
            bus.task_finish(task, device, start=t0, end=bus.clock())
        return produced

    def _apply(self, task, workspace, device):
        if self.policy is None:
            return apply_task(
                task, self.tiled, self.factors, workspace, backend=self.backend
            )
        return apply_task_resilient(
            task, self.tiled, self.factors, workspace,
            policy=self.policy, backend=self.backend, chaos=self.chaos,
            health=self.health, health_ref_norm=self.ref_norm,
            metrics=self.metrics, tracer=self.tracer, device=device, bus=self.bus,
        )

    def complete(self, tid: int, produced) -> bool:
        """Record finished task ``tid`` (or one of its chunks) and
        release its successors; True when a checkpoint is due."""
        chunks_left = self._chunks_left
        if chunks_left and tid in chunks_left:
            left = chunks_left[tid] - 1
            if left:
                chunks_left[tid] = left
                return False  # siblings still running
            del chunks_left[tid]
        task = self._tasks[tid]
        if produced is not None:
            self.log.append((task, produced))
        self.completed_order.append(task)
        self.done += 1
        waiting = self._waiting
        ptr = self._succ_ptr
        for succ in self._succ_idx[ptr[tid] : ptr[tid + 1]]:
            left = waiting[succ] - 1
            waiting[succ] = left
            if left == 0:
                self._release(succ)
        return self.checkpoints.task_done()

    def checkpoint(self, device: str) -> None:
        """Snapshot the completed frontier; call with no task in flight
        and no batch partly run (see :meth:`pop_begun`)."""
        nchunks, unpopped = self._nchunks, self._chunks
        if any(len(unpopped.get(tid, ())) < nchunks[tid] for tid in self._chunks_left):
            raise SimulationError("checkpoint requested while a batched update is partly run")
        self.checkpoints.write(self.completed_order, self.log, device=device)


class TaskGraphRuntime(Runtime):
    """An in-process runtime: a :class:`TaskGraphRun` driven by the
    subclass's ``_dispatch(run)`` policy."""

    def splitter(self):
        """A ``Task -> [chunks]`` splitter for one call's ready batched
        tasks (the run's ``split``), or None to run each batch whole."""
        return None

    def _factorize(self, a, tile_size, resume, opts) -> TiledQRFactorization:
        run = TaskGraphRun(a, tile_size, resume, opts, split=self.splitter())
        self._run_started(opts.bus, run.dag, run.tiled, completed=run.done)
        try:
            self._dispatch(run)
        finally:
            drain_fallbacks(opts.metrics, *run.workspaces)
        if run.done != run.total:
            raise SimulationError(
                f"{self.name} runtime finished {run.done}/{run.total} tasks"
            )
        self._run_finished(opts.bus, tasks=run.done)
        return TiledQRFactorization(r=run.tiled, log=run.log, shape=run.shape)

    def _dispatch(self, run: TaskGraphRun) -> None:
        raise NotImplementedError


class SerialRuntime(TaskGraphRuntime):
    """Reference executor: one task at a time, highest-rank-ready first,
    inline on the caller's thread — no threads, no locks.  BLAS runs one
    thread, as in the other runtimes' workers, so R is bit-identical
    across runtimes (``?tpqrt``'s T depends on the BLAS thread count).

    ``elimination`` and the keyword ``options`` are the
    :class:`RunOptions` fields; kernels run under device id ``"serial"``.
    """

    name = manager = "serial"

    def __init__(self, elimination: str = "TS", **options):
        super().__init__(elimination=elimination, **options)

    def _dispatch(self, run: TaskGraphRun) -> None:
        workspace = run.workspace()
        execute, complete = run.execute, run.complete
        with blas_threads(1):
            while (ready := run.pop()) is not None:
                tid, task = ready
                if complete(tid, execute(task, workspace, "serial")):
                    run.checkpoint("serial")


def tiled_qr(
    a: np.ndarray,
    tile_size: int = DEFAULT_TILE_SIZE,
    elimination: str = "TS",
    batch_updates: bool = False,
    backend=None,
) -> TiledQRFactorization:
    """One-call tiled QR: ``f = tiled_qr(A); Q, R = f.q_dense(), f.r_dense()``.

    This is the package's quickstart entry point.  ``backend`` names a
    registered kernel backend (``tiledqr backends`` lists them).
    """
    return SerialRuntime(
        elimination, batch_updates=batch_updates, backend=backend
    ).factorize(a, tile_size)
