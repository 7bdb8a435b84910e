"""Multiprocess execution: the paper's Fig. 7 as OS processes on one
shared-memory tile arena.

The paper's runtime is a manager thread plus one computing thread per
device; here each plan participant gets a worker process.

* **Arena.**  One :mod:`multiprocessing.shared_memory` segment per call
  holds every tile and, in one slot per factorization task of the DAG,
  each factor's V, block-T and taus.  Workers map it (inherited under
  ``fork``, attached by name under ``spawn``), so no tile or factor
  crosses a pipe.  The segment is unlinked on every exit path.
* **One executor.**  The manager drives the in-process runtimes'
  :class:`~repro.runtime.serial.TaskGraphRun` (ready heap, completion
  accounting, checkpoints, resume) and sends each ready task's *id* to
  its owner, :data:`WINDOW` tasks in flight per worker.  Workers reply
  with the id plus counter deltas and kernel events.
* **Owner computes** (arXiv:1110.1553) over the paper's Alg. 4 guide
  array: factorization tasks run on the panel owner
  (``plan.main_device``, or the column owner under
  ``panel_follows_column``), updates of column ``j`` on its owner, and
  a ready batched update is cut into runs of columns with one owner,
  all by one record (:class:`_Owners`).  Traced runs record each
  factor's first read on another device, and each panel column's
  hand-off from its owner to the panel owner, as transfers with their
  byte counts: the movement Eq. 11 prices, a memory read here.

Failover: under a :class:`~repro.resilience.RetryPolicy` (or ``chaos``
/ ``health_checks``) workers run tasks through the shared retry
envelope (:func:`~repro.runtime.core_exec.apply_task_resilient`).
Before each task a worker saves its write set in its own arena slot,
marked valid for that task; the retry envelope restores from the same
copy.  After the kernel and its factor it bumps a shared count of
committed tasks.  A worker that closes its pipe, reports a persistent
failure or misses its reply deadline is reaped; the manager completes
the tasks it committed but never reported, restores the write set of
the task it died in, re-elects the main device if needed, re-derives
the guide array over the survivors
(:func:`~repro.core.distribution.guide_for_participants`) and re-queues
the worker's tasks to their new owners.  Every task so completes once on
the tiles it would have seen, and R stays bit-identical to the serial
runtime's; with no survivor the run raises
:class:`~repro.errors.WorkerFailoverError`.

Checkpoints count tasks and are quiescent frontiers, as in the threaded
runtime: while one waits, the manager sends only the queued chunks of
batched updates, so no snapshot holds a batch partly applied.  Any
valid snapshot resumes here, and these resume anywhere.
"""

from __future__ import annotations

import multiprocessing as mp
import selectors
from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import count
from time import perf_counter

from ..core.plan import DistributionPlan
from ..dag.tasks import Task, TaskKind
from ..errors import ReproError, SimulationError, WorkerFailoverError
from ..kernels.backends import resolve_backend
from ..kernels.workspace import Workspace, drain_fallbacks
from .arena import FACTOR_KINDS, Arena, ArenaFactors, copy_tiles
from .blas import blas_threads, set_num_threads
from .core_exec import apply_task, apply_task_resilient, factor_key
from .serial import TaskGraphRun, TaskGraphRuntime

#: Tasks in flight per worker: with two, a worker starts its next task
#: while the manager handles the last reply (see docs/PERFORMANCE.md).
WINDOW = 2


def _worker_main(
    conn, arena: Arena, w: int, device: str, backend_name: str, policy, fault_plan,
    health: bool, ref_norm, trace: bool, counters: bool,
) -> None:
    """Worker process body: run the tasks whose ids arrive on ``conn``, in
    order, on the arena, until the manager says stop (``None``).

    Each reply is ``(task id, error, counter deltas, kernel events)``;
    an error reply ends the worker.  The backend is resolved by name
    here, so spawn and fork behave alike.
    """
    from ..observability.metrics import MetricsRegistry

    set_num_threads(1)  # one BLAS thread per worker process (spawn start method)
    metrics = MetricsRegistry() if counters else None
    chaos = None
    if fault_plan is not None:
        from ..resilience import ChaosEngine

        chaos = ChaosEngine(fault_plan, metrics=metrics, device=device)
    workspace, events, sent = Workspace(), [], {}

    def reply(tid, err=None) -> None:
        deltas = None
        if metrics is not None:
            drain_fallbacks(metrics, workspace)
            now = metrics.snapshot()["counters"]
            deltas = {n: v - sent.get(n, 0.0) for n, v in now.items() if v != sent.get(n, 0.0)}
            sent.update(now)
        conn.send((tid, err, deltas, events[:] if trace else None))
        events.clear()

    def serve() -> None:
        kern = resolve_backend(backend_name)
        tiled, tasks, factors = arena.tiled, arena.tasks, ArenaFactors(arena)
        done = 0
        while (msg := conn.recv()) is not None:
            if type(msg) is int:
                tid, task = msg, tasks[msg]
            elif msg == "sync":  # clock handshake (spawn)
                conn.send(perf_counter())
                continue
            else:  # one column chunk of a batched update
                tid, j0, j1 = msg
                t = tasks[tid]
                task = Task(t.kind, t.k, t.row, t.row2, j0, j1)
            start = perf_counter()
            if policy is None:
                produced = apply_task(task, tiled, factors, workspace, backend=kern)
            else:  # the write set is saved in the arena, for failover too
                produced = apply_task_resilient(
                    task, tiled, factors, workspace,
                    policy=policy, backend=kern, chaos=chaos, health=health,
                    health_ref_norm=ref_norm, metrics=metrics, device=device,
                    save=partial(arena.snapshot, w, done + 1),
                )
            if trace:
                events.append((task, start, perf_counter()))
            if produced is not None:
                factors[factor_key(task)] = arena.store(task, produced)
            done += 1
            arena.ctrl[w, 0] = done  # committed: its tiles and factor are in
            reply(tid)

    try:
        serve()
    except EOFError:  # the manager is gone
        pass
    except Exception as exc:  # surface kernel errors to the manager
        try:
            reply(None, f"{type(exc).__name__}: {exc}")
        except OSError:
            pass
    finally:
        arena.detach()


class MultiprocessRuntime(TaskGraphRuntime):
    """Execute tiled QR in one worker process per plan participant.

    ``plan`` fixes placement (see the module docstring); the keyword
    ``options`` are the :class:`~repro.runtime.serial.RunOptions` fields.
    Here ``tracer``/``bus`` get the workers' kernel events (rebased by a
    clock handshake under spawn), the transfers, and a ``heartbeat`` per
    reply; with a bus ``heartbeat_interval`` a silent worker raises
    ``heartbeat.missed`` before its reply deadline (``policy.deadline``
    per task in flight, plus one second) fails it over.  ``chaos`` ships
    its fault plan to every worker, and ``backend`` is resolved by name
    in each worker, so it must be registered at import time.
    """

    name = "multiprocess"

    def __init__(self, plan: DistributionPlan, **options):
        super().__init__(**options)
        self.plan = plan

    def _describe(self) -> dict:
        return {"devices": list(self.plan.participants)}

    def splitter(self) -> _Owners:
        return _Owners(self.plan)

    def _dispatch(self, run: TaskGraphRun) -> None:
        # Forked workers inherit the pin.  One scope for the whole call:
        # each restore of the caller's count wakes OpenBLAS's pool, whose
        # idle threads then spin on the manager's cores.
        with blas_threads(1):
            _Manager(self.plan, run, self.options).drive()


class _Owners:
    """Column ownership for one call: the plan's, until a failover
    moves a dead worker's columns.  As the run's splitter it cuts a
    ready batched update into runs of columns with one owner."""

    def __init__(self, plan: DistributionPlan):
        self.plan, self.home = plan, {}

    def __getitem__(self, j: int) -> str:
        if j not in self.home:
            self.home[j] = self.plan.column_owner(j)
        return self.home[j]

    def __call__(self, task: Task) -> list[Task]:
        cuts = [j for j in range(task.col + 1, task.col_end) if self[j] != self[j - 1]]
        edges = [task.col, *cuts, task.col_end]
        return [Task(task.kind, task.k, task.row, task.row2, j0, j1)
                for j0, j1 in zip(edges, edges[1:])] if cuts else [task]


class _Manager:
    """One call's workers, placement and failover around a
    :class:`~repro.runtime.serial.TaskGraphRun`."""

    def __init__(self, plan: DistributionPlan, run: TaskGraphRun, opts):
        self.plan, self.run, self.opts = plan, run, opts
        self.b, self.tasks = run.tiled.tile_size, run.dag.tasks
        self.position = run.dag.priority(self.b)[1]
        self.devices, self.live = list(plan.participants), list(plan.participants)
        self.main = plan.main_device
        self.owners = run.split  # the _Owners the run splits batches with
        self.deadline = run.policy.deadline if run.policy is not None else None
        self.tracer, self.bus, self.metrics = run.tracer, run.bus, run.metrics
        self.inflight = {d: deque() for d in self.devices}
        self.queued = {d: [] for d in self.devices}  # heaps of (position, seq, id, task)
        self.acked = dict.fromkeys(self.devices, 0)
        self.heard = dict.fromkeys(self.devices, 0.0)  # last reply (deadlines)
        self.missed = dict.fromkeys(self.devices, 0.0)  # silence already reported
        self.offset = dict.fromkeys(self.devices, 0.0)  # worker clock -> ours
        self.seq, self.conns, self.procs = count(), {}, {}
        self.selector = selectors.DefaultSelector()
        self.producer, self.seen = {}, set()  # transfer records (traced runs)
        self.due = False

    def drive(self) -> None:
        run = self.run
        self.arena = Arena(run, len(self.devices), run.policy is not None)
        try:
            self._start()
            paused = False
            while run.done < run.total:
                if not paused:
                    while (ready := run.pop()) is not None:
                        self._queue(*ready)
                for dev in list(self.live):
                    self._feed(dev, chunks_only=paused)
                if paused and self._settled():
                    copy_tiles(self.arena.tiled, run.tiled)
                    run.checkpoint("manager")
                    paused = False
                    continue
                self._receive()
                paused, self.due = paused or self.due, False
            copy_tiles(self.arena.tiled, run.tiled)
        finally:
            # Forked workers hold copies of every pipe end, so closing ours
            # alone is no EOF for them: each live worker is told to stop.
            for dev, conn in self.conns.items():
                try:
                    if dev in self.live:
                        conn.send(None)
                except OSError:
                    pass
                conn.close()
            self.selector.close()
            for proc in self.procs.values():
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - hygiene
                    proc.terminate()
                    proc.join()
            self.arena.release()

    def _start(self) -> None:
        # fork keeps startup cheap and the perf_counter clock shared; where
        # only spawn exists (Windows, macOS default) workers attach to the
        # arena by name and a handshake rebases their timestamps.
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx, run, opts = mp.get_context(method), self.run, self.opts
        watched = self.tracer is not None or self.bus is not None
        for w, dev in enumerate(self.devices):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, daemon=True, args=(
                child, self.arena, w, dev, opts.backend.name, run.policy, opts.fault_plan,
                opts.health_checks, run.ref_norm, watched, self.metrics is not None,
            ))
            proc.start()
            child.close()
            self.conns[dev], self.procs[dev] = parent, proc
            self.selector.register(parent, selectors.EVENT_READ, dev)
        for dev, conn in self.conns.items() if watched and method == "spawn" else ():
            t0 = perf_counter()
            conn.send("sync")
            if not isinstance(now := conn.recv(), float):
                raise SimulationError(f"worker {dev} failed: {now[1]}")
            self.offset[dev] = 0.5 * (t0 + perf_counter()) - now

    # -- dispatch ------------------------------------------------------

    def _queue(self, tid: int, task: Task) -> None:
        if task.kind not in FACTOR_KINDS:
            dev = self.owners[task.col]
        else:
            dev = self.owners[task.k] if self.plan.panel_follows_column else self.main
        heappush(self.queued[dev], (self.position[tid], next(self.seq), tid, task))

    def _feed(self, dev: str, chunks_only: bool = False) -> None:
        """Send ``dev``'s highest-rank queued tasks until its window is
        full; only chunks of batched updates while a checkpoint waits."""
        queued, inflight, held = self.queued[dev], self.inflight[dev], []
        while queued and len(inflight) < WINDOW:
            entry = heappop(queued)
            _pos, _seq, tid, task = entry
            if chunks_only and task is self.tasks[tid]:
                held.append(entry)
                continue
            if not inflight and self.deadline is not None:
                self.heard[dev], self.missed[dev] = perf_counter(), 0.0
            inflight.append((tid, task))
            if self.tracer is not None:
                self._note_transfer(dev, task)
            try:
                self.conns[dev].send(
                    tid if task is self.tasks[tid] else (tid, task.col, task.col_end)
                )
            except OSError as exc:
                queued.extend(held)
                return self._died(dev, f"pipe closed ({type(exc).__name__})")
        for entry in held:
            heappush(queued, entry)

    def _settled(self) -> bool:
        """Nothing in flight and no chunk of a batched update queued: no
        batch is partly run, so a checkpoint may be taken."""
        return not any(self.inflight[d] for d in self.live) and all(
            e[3] is self.tasks[e[2]] for d in self.live for e in self.queued[d])

    def _note_transfer(self, dev: str, task: Task) -> None:
        """Record a factor's first read on another device, or panel
        column ``k``'s hand-off from its owner to the panel owner."""
        b, k = self.b, task.k
        if task.kind in FACTOR_KINDS:
            key, src = ("col", k), self.owners[k]
            nbytes = (self.run.tiled.grid_rows - k) * b * b
        else:
            key = ("Vg" if task.kind.single is TaskKind.UNMQR else "Ve", task.row, k)
            src = self.producer.get(key)
            nbytes = b * b + int(self.arena.nbs[self.arena.slots[key][0]]) * b + b
        if src is None or (key, dev) in self.seen:
            return
        self.seen.add((key, dev))
        if src != dev:
            now = perf_counter()
            self.tracer.record_transfer(
                src=src, dst=dev, num_bytes=float(nbytes * self.arena.dtype.itemsize),
                start=now, end=now, tag=f"col{k}" if key[0] == "col" else f"bcast{k}",
            )

    # -- replies -------------------------------------------------------

    def _receive(self) -> None:
        timeout = self._watch()
        if not any(self.inflight[d] for d in self.live):
            if any(self.queued[d] for d in self.live):
                return  # a failover re-queued work: feed it first
            raise SimulationError(
                f"multiprocess runtime stalled: {self.run.total - self.run.done} "
                f"task(s) left, none in flight"
            )
        for key, _events in self.selector.select(timeout):
            if key.data in self.live:
                self._reply(key.data)

    def _reply(self, dev: str) -> None:
        try:
            tid, err, deltas, events = self.conns[dev].recv()
        except (EOFError, OSError) as exc:
            return self._died(dev, f"pipe closed ({type(exc).__name__})")
        self.heard[dev], self.missed[dev] = perf_counter(), 0.0
        for name, n in (deltas or {}).items() if self.metrics is not None else ():
            self.metrics.counter(name).inc(n)
        off = self.offset[dev]
        for task, start, end in events or ():
            if self.tracer is not None:
                self.tracer.record_task(task, dev, start + off, end + off, tile_size=self.b)
            if self.bus is not None:
                self.bus.task_finish(task, dev, start=start + off, end=end + off)
        if self.bus is not None:
            self.bus.publish("heartbeat", dev, {"message": "task"})
        if err is not None:
            return self._died(dev, err)
        _tid, task = self.inflight[dev].popleft()
        self.acked[dev] += 1
        self._finish(dev, tid, task)

    def _finish(self, dev: str, tid: int, task: Task) -> None:
        produced = None
        if task.kind in FACTOR_KINDS:
            key = factor_key(task)
            produced = self.arena.factor(key, copy=True)
            self.producer[key] = dev
        self.due |= self.run.complete(tid, produced)

    # -- deadlines and failover ----------------------------------------

    def _watch(self) -> float | None:
        """Fail over workers past their reply deadline (``policy.deadline``
        per task in flight, plus one second), after a ``heartbeat.missed``
        per silent heartbeat interval; returns the seconds to the next
        such event (``None`` without a deadline)."""
        if self.deadline is None:
            return None
        now, hb = perf_counter(), self.bus.heartbeat_interval if self.bus is not None else None
        wake = hb or float("inf")
        for dev in list(self.live):
            if not self.inflight[dev]:
                continue
            silent, budget = now - self.heard[dev], self.deadline * len(self.inflight[dev]) + 1.0
            if silent >= budget:
                if self.metrics is not None:
                    self.metrics.counter("resilience.timeouts").inc()
                self._died(dev, f"no reply within {budget:.1f}s (hung?)")
                continue
            if hb and silent >= self.missed[dev] + hb:
                self.missed[dev] = silent
                self.bus.publish("heartbeat.missed", dev, {
                    "silent_seconds": silent, "budget": budget, "message": "task",
                })
            wake = min(wake, budget - silent)
        return max(wake, 1e-3)

    def _died(self, dev: str, reason: str) -> None:
        """Declare ``dev`` dead and move its work to the survivors."""
        if self.run.policy is None:
            raise SimulationError(f"worker {dev} failed: {reason}")
        self.live.remove(dev)
        self.selector.unregister(self.conns[dev])
        self.conns[dev].close()
        proc = self.procs[dev]
        proc.join(timeout=0.5)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        lost = self.inflight[dev]
        k = lost[0][1].k if lost else 0
        if self.metrics is not None:
            self.metrics.counter("resilience.worker_deaths").inc()
            self.metrics.counter("resilience.failovers").inc()
        if self.main == dev and self.live:
            speed = self.plan.system.device
            self.main = max(self.live, key=lambda d: speed(d).update_throughput(self.b))
        self._announce(dev, f"{dev} died at panel {k} ({reason}); main={self.main}", {
            "died": True, "panel": k, "reason": reason, "main": self.main,
            "detail": f"{dev} died at panel {k} ({reason})",
        })
        # What the worker committed is done; the task it died in gets its
        # write set back.
        w = self.devices.index(dev)
        committed, mark = (int(x) for x in self.arena.ctrl[w])
        for _ in range(committed - self.acked[dev]):
            self._finish(dev, *lost.popleft())
        if lost and mark == committed + 1:
            self.arena.restore(w, lost[0][1])
        if not self.live:
            raise WorkerFailoverError(
                f"no surviving devices to fail over to at panel {k}; "
                f"{len(lost)} task(s) in flight on {dev} are unrecoverable"
            )
        self._rehome(dev, k)
        moved = [*lost, *(entry[2:] for entry in self.queued[dev])]
        lost.clear()
        self.queued[dev].clear()
        for tid, task in moved:
            self._queue(tid, task)

    def _rehome(self, dev: str, k: int) -> None:
        """Give ``dev``'s columns to the survivors by the guide array Alg. 4
        derives over them."""
        from ..core.distribution import guide_for_participants

        tiled = self.run.tiled
        stranded = [j for j in range(tiled.grid_cols) if self.owners[j] == dev]
        if not stranded:
            return
        try:
            _ratio, guide = guide_for_participants(
                self.plan.system, self.live, self.main, tiled.grid_rows, tiled.grid_cols, self.b
            )
        except ReproError:
            guide = []
        guide = guide or list(self.live)
        for idx, j in enumerate(stranded):
            self.owners.home[j] = guide[idx % len(guide)]
        to = sorted({self.owners[j] for j in stranded})
        self._announce("manager", f"migrated column(s) {stranded} -> {{{', '.join(to)}}}", {
            "died": False, "panel": k, "columns": stranded, "to": to,
            "detail": f"migrated column(s) {stranded}",
        })

    def _announce(self, device: str, label: str, data: dict) -> None:
        if self.tracer is not None:
            self.tracer.record_annotation("failover", label, device)
        if self.bus is not None:
            self.bus.publish("failover", device, data)
