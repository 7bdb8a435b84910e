"""Thread-pool execution of the tiled-QR DAG.

Implements the manager/computing-thread structure of the paper's Fig. 7
in-process: the shared task-graph loop
(:class:`~repro.runtime.serial.TaskGraphRun`) releases tasks as their
predecessors complete, and a pool of worker threads executes them.  NumPy's BLAS releases the GIL inside
the tile GEMMs, so workers genuinely overlap on multicore hosts; on a
single-core host the runtime still exercises the full concurrency-control
path.  Only the dispatch policy lives here; the ready heap, completion
accounting, checkpoints and events are the serial runtime's.

Correctness under reordering: any two factorization tasks left unordered
by the DAG act on disjoint tile-row sets (otherwise they would conflict
on a panel tile and be ordered), so their block reflectors commute and
logging them in *completion* order still yields a valid ``Q``.

Workers always pop the ready task with the longest weighted path to a
sink, so the panel chain that bounds makespan is never starved by
trailing updates.

With ``batch_updates=True`` the DAG carries coarsened row-panel update
tasks.  To keep the update-phase parallelism the per-tile DAG had, a
ready batch is *split into contiguous column chunks* — one per worker —
that execute concurrently (they write disjoint column ranges of the same
tile row, so no synchronization is needed); the batch's successors are
released only when every chunk has finished.

Failure semantics: the first unrecovered error sets a shared cancel
flag.  Workers check it *before* starting any task, so no further kernel
begins after the failure — already-queued tasks are dropped, not
drained.  With a retry policy, retryable failures are absorbed inside
:func:`~repro.runtime.core_exec.apply_task_resilient` and only
exhausted/unretryable errors cancel the run.

Mid-run checkpoints use a stop-the-world drain: the worker that crosses
the checkpoint threshold pauses dispatch, waits for in-flight kernels to
finish, snapshots the quiescent state, and resumes — so every snapshot
is a downward-closed frontier the resume path can trust.
"""

from __future__ import annotations

import threading

# The layer ledger's traced mode patches these two names on this module.
from ..dag import build_dag  # noqa: F401
from ..dag.analysis import bottom_level_ranks  # noqa: F401
from ..dag.tasks import Task
from .blas import blas_threads
from .serial import TaskGraphRun, TaskGraphRuntime


def split_batch(task: Task, parts: int) -> list[Task]:
    """Split a batched update into ``<= parts`` contiguous column chunks.

    Chunks are valid batched tasks over sub-ranges of ``[col, col_end)``
    whose expansions partition the parent's expansion.  Returns
    ``[task]`` unchanged when splitting is pointless.
    """
    n = task.ncols
    parts = max(1, min(parts, n))
    if not task.is_batch or parts == 1:
        return [task]
    bounds = [task.col + (n * i) // parts for i in range(parts + 1)]
    return [
        Task(task.kind, task.k, task.row, task.row2, j0, j1)
        for j0, j1 in zip(bounds[:-1], bounds[1:])
    ]


class ThreadedRuntime(TaskGraphRuntime):
    """Dependency-driven thread-pool executor.

    ``num_workers`` is the worker thread count (the paper's "computing
    threads"); ``elimination`` and the keyword ``options`` are the
    :class:`~repro.runtime.serial.RunOptions` fields.  Worker ``i`` runs
    kernels under device id ``"worker-<i>"`` with a private
    :class:`~repro.kernels.workspace.Workspace`.  With a bus whose
    ``heartbeat_interval`` is set, a
    :class:`~repro.observability.live.heartbeat.HeartbeatMonitor` runs for
    the duration of the factorization, so a stalled kernel raises
    ``heartbeat.missed`` events before the retry deadline classifies it.

    A kernel exception in any worker aborts the factorization and
    re-raises in the calling thread, annotated with the failing task;
    queued tasks are cancelled immediately — no task starts after the
    first fatal error.
    """

    name = "threaded"

    def __init__(self, num_workers: int = 4, elimination: str = "TS", **options):
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        super().__init__(elimination=elimination, **options)
        self.num_workers = num_workers

    def _describe(self) -> dict:
        return {"workers": self.num_workers}

    def split(self, task: Task) -> list[Task]:
        """One column chunk of a ready batch per worker."""
        return split_batch(task, self.num_workers)

    def _dispatch(self, run: TaskGraphRun) -> None:
        cond = threading.Condition()
        cancel = threading.Event()
        all_done = threading.Event()
        errors: list[BaseException] = []
        # Guarded by `cond`: kernels executing, dispatch paused for a
        # stop-the-world checkpoint, run over.
        inflight = 0
        paused = stop = False
        if run.done == run.total:
            all_done.set()

        def fail(exc: BaseException) -> None:
            """First-error path: record, cancel all pending work, wake everyone."""
            nonlocal paused
            with cond:
                errors.append(exc)
                # A pauser waiting for quiescence must not deadlock on a
                # worker that died instead of decrementing inflight.
                paused = False
                cond.notify_all()
            cancel.set()
            all_done.set()

        def pop_task() -> tuple[int, Task] | None:
            """``(task id, task)`` of the highest-rank ready task; None
            when the run is over.

            Blocks while nothing is ready or dispatch is paused for a
            checkpoint; increments ``inflight`` atomically with the pop
            so the pauser's quiescence wait is race-free.
            """
            nonlocal inflight
            with cond:
                while True:
                    if cancel.is_set() or stop:
                        return None
                    ready = None if paused else run.pop()
                    if ready is not None:
                        inflight += 1
                        return ready
                    cond.wait()

        def worker(device: str, workspace) -> None:
            nonlocal inflight, paused
            while (ready := pop_task()) is not None:
                tid, task = ready
                try:
                    produced = run.execute(task, workspace, device)
                except BaseException as exc:  # propagate to the caller
                    with cond:
                        inflight -= 1
                        cond.notify_all()
                    if hasattr(exc, "add_note"):  # 3.11+
                        exc.add_note(f"while executing task {task.label()} on {device}")
                    fail(exc)
                    return
                with cond:
                    inflight -= 1
                    due = run.complete(tid, produced)
                    finished = run.done == run.total
                    if due and not finished and not cancel.is_set():
                        # Stop the world: block new dispatch, drain
                        # in-flight kernels, snapshot, resume.
                        paused = True
                        while inflight > 0 and not cancel.is_set():
                            cond.wait()
                        if not cancel.is_set():
                            try:
                                run.checkpoint(device)
                            except BaseException as exc:
                                fail(exc)
                                return
                        paused = False
                    cond.notify_all()
                if finished:
                    all_done.set()

        threads = [
            threading.Thread(
                target=worker, args=(f"worker-{i}", run.workspace()),
                name=f"tiledqr-worker-{i}", daemon=True,
            )
            for i in range(self.num_workers)
        ]
        monitor = None
        if run.bus is not None and run.bus.heartbeat_interval:
            from ..observability.live.heartbeat import HeartbeatMonitor

            monitor = HeartbeatMonitor(run.bus).start()
        try:
            with blas_threads(1):  # one BLAS thread per worker
                for th in threads:
                    th.start()
                all_done.wait()
                with cond:
                    stop = True
                    cond.notify_all()
                for th in threads:
                    th.join()
        finally:
            if monitor is not None:
                monitor.stop()
        if errors:
            raise errors[0]
