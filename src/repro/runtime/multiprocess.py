"""Distributed-memory execution: the paper's Fig. 7 as real processes.

The paper's runtime is a manager thread plus one computing thread per
device, with explicit data movement between device memories.  This
module realizes that structure with OS processes and pipes — the
closest single-machine analog of the paper's system that Python can
express honestly:

* every *worker process* owns the tiles of the columns its device is
  assigned (nothing else — there is no shared matrix);
* the *manager* drives the panel loop: tells the panel owner to
  factorize, routes the reflector factors to the devices that need them
  (the Eq. 11 broadcasts), and migrates the next panel column to the
  panel owner — every byte that the simulators price is a real pickled
  message here;
* workers run their DAG tasks through the in-process runtimes' kernel
  layer (:mod:`repro.runtime.core_exec`) over their own columns, so this
  module holds only ownership, messages, failover and checkpoints.

This runtime exists to *validate the distribution logic end to end*
(ownership, broadcast, column migration) rather than for speed: with
CPython process overheads, small matrices dominate on IPC.  Results are
bit-identical to the serial runtime.

Fault tolerance
---------------
With a :class:`~repro.resilience.RetryPolicy` (or a fault plan) the
manager runs each panel as a *transaction* that survives device loss:

* **detection** — a worker that closes its pipe, reports a persistent
  (retry-exhausted) kernel failure, or misses its reply deadline is
  declared dead and its process reaped;
* **failover** — the survivors are re-planned by re-invoking the guide
  array construction (paper Alg. 4) over the remaining devices, and the
  dead device's tile columns migrate to them: finished R columns are
  restored from the manager's shadow copies (captured at each
  ``FactorPanel`` reply), trailing columns are *reconstructed* by
  replaying the logged reflector factors against the pristine input
  column — the factor log the manager already keeps for building ``Q``
  doubles as the redundancy that makes every column recoverable;
* **replay** — the interrupted panel then re-runs from its frontier:
  the per-column ``applied`` watermark ensures re-broadcast updates are
  sent only to columns that have not absorbed them, so no update is
  ever applied twice.

Workers run every task through the shared retry envelope
(:func:`~repro.runtime.core_exec.apply_task_resilient`, per-kernel
``RetryPolicy.deadline`` included); its counters land in a worker-local
metrics registry whose deltas ride every reply into the manager's.

Mid-run checkpoints are panel-aligned: after every ``checkpoint_every``
panels the manager gathers the live columns and writes a format-2
snapshot (see :mod:`repro.runtime.checkpoint`) whose completed set is
exactly the per-tile DAG tasks of the finished panels; such snapshots
resume on any runtime.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from ..core.plan import DistributionPlan
from ..dag.tasks import Task, TaskKind
from ..errors import SimulationError, WorkerFailoverError
from ..kernels.backends import resolve_backend
from ..kernels.workspace import Workspace, drain_fallbacks
from .blas import blas_threads, set_num_threads
from .core_exec import Factors, apply_task, apply_task_resilient, factor_key
from .factorization import TiledQRFactorization
from .serial import Runtime, _CheckpointWriter, check_resume_state, coerce_input


class _WorkerDied(Exception):
    """Internal: a worker is dead or unresponsive (device + reason)."""

    def __init__(self, device: str, reason: str):
        super().__init__(f"worker {device} failed: {reason}")
        self.device = device
        self.reason = reason


# ---------------------------------------------------------------------------
# Messages (manager -> worker).  Workers answer every message with
# ("ok"|"error", payload, counter deltas, kernel events).
# ---------------------------------------------------------------------------

@dataclass
class LoadColumns:
    """Seed the worker with its owned columns."""

    columns: dict[int, list[np.ndarray]]  # col -> tiles top..bottom


@dataclass
class FactorPanel:
    """Run the panel reduction on panel ``k`` (worker owns col k).

    ``tasks`` are the panel's factorization tasks in tree order, taken
    manager-side from the elimination tree's DAG, so the worker stays
    tree-agnostic.  Replies with ``(factors, column_tiles)``: the
    ``[(task, factors)]`` pairs with ``r`` stripped (the R tiles stay
    with the column) and a copy of the finished column — the manager's
    shadow R column for failover.
    """

    k: int
    tasks: list[Task]


@dataclass
class ReceiveColumn:
    """Install a migrated column (ownership transfer)."""

    col: int
    tiles: list[np.ndarray]


@dataclass
class SendColumn:
    """Ship a column back to the manager (for migration)."""

    col: int


@dataclass
class Update:
    """Apply broadcast panel factors to the worker's columns > k.

    ``cols`` restricts the update to an explicit column list (failover
    re-broadcasts use it so a column never absorbs the same panel's
    update twice); ``None`` means every owned column right of ``k``.
    """

    k: int
    factors: list  # [(task, factors)] from the panel's FactorPanel reply
    cols: list[int] | None = None


@dataclass
class Collect:
    """Return every owned column (non-destructive)."""


@dataclass
class ClockSync:
    """Reply with the worker's current ``perf_counter`` reading.

    Kernel events carry the worker's ``perf_counter``, whose epoch
    differs per process under spawn (fork shares the manager's).  The
    manager brackets this round-trip with its own clock and takes the
    midpoint as the exchange instant: a manager-minus-worker offset
    accurate to about half the pipe round-trip.
    """


@dataclass
class Shutdown:
    pass


class _Columns:
    """A worker's owned tile columns, ``{col: [tiles top..bottom]}``,
    behind the four :class:`~repro.tiles.TiledMatrix` methods that
    :func:`~repro.runtime.core_exec.apply_task` uses.  A one-column row
    panel is the live tile; a wider one is a gathered copy that
    :meth:`scatter_row_panel` writes back.
    """

    __slots__ = ("cols",)

    def __init__(self, cols: dict[int, list[np.ndarray]]):
        self.cols = cols

    def tile(self, i: int, j: int) -> np.ndarray:
        return self.cols[j][i]

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        self.cols[j][i][...] = value

    def row_panel(self, i: int, j0: int, j1: int) -> np.ndarray:
        if j1 - j0 == 1:
            return self.cols[j0][i]
        return np.hstack([self.cols[j][i] for j in range(j0, j1)])

    def scatter_row_panel(self, i: int, j0: int, j1: int, panel: np.ndarray) -> None:
        if j1 - j0 == 1:
            return  # the kernel updated the live tile
        off = 0
        for j in range(j0, j1):
            tile = self.cols[j][i]
            w = tile.shape[1]
            tile[...] = panel[:, off : off + w]
            off += w


def _contiguous_runs(cols: list[int]) -> list[tuple[int, int]]:
    """Group a sorted column list into half-open contiguous runs."""
    runs: list[tuple[int, int]] = []
    for j in cols:
        if runs and runs[-1][1] == j:
            runs[-1] = (runs[-1][0], j + 1)
        else:
            runs.append((j, j + 1))
    return runs


#: Factorization kind -> the (per-tile, batched) kinds of its updates.
_UPDATE_KINDS = {
    TaskKind.GEQRT: (TaskKind.UNMQR, TaskKind.UNMQR_BATCH),
    TaskKind.TSQRT: (TaskKind.TSMQR, TaskKind.TSMQR_BATCH),
    TaskKind.TTQRT: (TaskKind.TTMQR, TaskKind.TTMQR_BATCH),
}


def _update_task(ft: Task, j0: int, j1: int | None = None) -> Task:
    """The update applying factorization task ``ft``'s reflectors to
    column ``j0`` (``j1=None``) or, batched, to columns ``[j0, j1)``."""
    single, batch = _UPDATE_KINDS[ft.kind]
    if j1 is None:
        return Task(single, ft.k, ft.row, ft.row2, j0)
    return Task(batch, ft.k, ft.row, ft.row2, j0, j1)


def _strip_r(f: Factors) -> Factors:
    """``f`` without its R tile, which stays with the column: ``r``
    becomes a zero-width view that keeps the row count the update
    kernels read."""
    return replace(f, r=f.r[:, :0])


def _worker_main(
    conn, trace: bool, batch_updates: bool, device_id: str, fault_plan, policy,
    health: bool, backend_name: str,
) -> None:
    """Worker process body: owns columns, runs DAG tasks on demand.

    Tasks run through :func:`~repro.runtime.core_exec.apply_task`, or,
    under ``policy`` (the manager's effective retry policy), through
    :func:`~repro.runtime.core_exec.apply_task_resilient`.  With
    ``trace`` every task is timed into ``(task, start, end)`` events.
    """
    from ..observability.metrics import MetricsRegistry

    set_num_threads(1)  # one BLAS thread per worker process (spawn start method)
    owned = _Columns({})
    events: list[tuple] = []
    workspace = Workspace()
    # Backends travel by *name* (registered in every process at import),
    # not by pickled object, so spawn and fork behave identically.
    kern = resolve_backend(backend_name)
    metrics = MetricsRegistry()
    sent: dict[str, float] = {}
    chaos = None
    if fault_plan is not None:
        from ..resilience import ChaosEngine

        chaos = ChaosEngine(fault_plan, metrics=metrics, device=device_id)

    def reply(status: str, payload) -> None:
        # Counter deltas and buffered kernel events ride every reply, so
        # a worker that later dies (kill, hang, crash) has already
        # delivered everything up to its last reply — partial activity
        # survives failover, and live telemetry sees kernels as each
        # message completes.
        drain_fallbacks(metrics, workspace)
        counts = metrics.snapshot()["counters"]
        deltas = {n: v - sent.get(n, 0.0) for n, v in counts.items() if v != sent.get(n, 0.0)}
        sent.update(counts)
        conn.send((status, payload, deltas, events[:]))
        events.clear()

    # Per-column squared norms of the data this worker holds, maintained
    # on column arrival/departure — the reference magnitude for the
    # per-panel residual probes (health checks only).  Orthogonal
    # updates preserve it, so it stays valid mid-run.
    col_norm_sq: dict[int, float] = {}

    def note_columns(cols: dict) -> None:
        if health:
            for j, tiles in cols.items():
                col_norm_sq[j] = sum(float(np.linalg.norm(t)) ** 2 for t in tiles)

    def run(task: Task, factors: dict) -> Factors | None:
        start = perf_counter()
        if policy is None:
            produced = apply_task(task, owned, factors, workspace, backend=kern)
        else:
            produced = apply_task_resilient(
                task, owned, factors, workspace,
                policy=policy, backend=kern, chaos=chaos, health=health,
                health_ref_norm=sum(col_norm_sq.values()) ** 0.5 if col_norm_sq else None,
                metrics=metrics, device=device_id,
            )
        if trace:
            events.append((task, start, perf_counter()))
        return produced

    try:
        while True:
            msg = conn.recv()
            if isinstance(msg, Shutdown):
                reply("ok", None)
                return
            if isinstance(msg, LoadColumns):
                owned.cols.update(msg.columns)
                note_columns(msg.columns)
                reply("ok", None)
            elif isinstance(msg, ClockSync):
                reply("ok", perf_counter())
            elif isinstance(msg, ReceiveColumn):
                owned.cols[msg.col] = msg.tiles
                note_columns({msg.col: msg.tiles})
                reply("ok", None)
            elif isinstance(msg, SendColumn):
                col_norm_sq.pop(msg.col, None)
                reply("ok", owned.cols.pop(msg.col))
            elif isinstance(msg, FactorPanel):
                factors: dict = {}
                out = [(t, _strip_r(run(t, factors))) for t in msg.tasks]
                reply("ok", (out, [t.copy() for t in owned.cols[msg.k]]))
            elif isinstance(msg, Update):
                k = msg.k
                if msg.cols is None:
                    targets = sorted(j for j in owned.cols if j > k)
                else:
                    # Preserve the manager's order: columns arrive sorted
                    # by critical-path rank (most critical first).
                    targets = [j for j in msg.cols if j in owned.cols and j > k]
                if batch_updates:
                    # One wide panel per contiguous run of owned columns —
                    # fewer, larger GEMMs (see docs/PERFORMANCE.md).
                    order = {j: n for n, j in enumerate(targets)}
                    spans = _contiguous_runs(sorted(targets))
                    spans.sort(key=lambda r: min(order[j] for j in range(*r)))
                else:
                    spans = [(j, None) for j in targets]
                # Factors live only for this message, so worker memory
                # does not grow with the number of panels.
                factors = {factor_key(t): f for t, f in msg.factors}
                for ft, _f in msg.factors:
                    for j0, j1 in spans:
                        run(_update_task(ft, j0, j1), factors)
                reply("ok", None)
            elif isinstance(msg, Collect):
                reply("ok", owned.cols)
            else:  # pragma: no cover - protocol guard
                reply("error", f"unknown message {type(msg).__name__}")
                return
    except EOFError:  # manager died; exit quietly
        return
    except Exception as exc:  # surface kernel errors to the manager
        try:
            reply("error", f"{type(exc).__name__}: {exc}")
        except (BrokenPipeError, OSError):
            pass


class MultiprocessRuntime(Runtime):
    """Execute tiled QR across worker processes per a distribution plan.

    ``plan`` fixes column/panel ownership (one worker is spawned per
    participant); the keyword ``options`` are the
    :class:`~repro.runtime.serial.RunOptions` fields, which behave here
    as follows:

    * ``elimination`` — the manager takes each panel's factorization
      tasks from the tree's DAG and ships them to the panel owner, so
      every registered tree runs distributed;
    * ``tracer`` / ``bus`` — workers time every task locally and
      piggyback the events on every reply; the manager merges them
      (ClockSync-rebased) under each worker's device id, records column
      migrations and factor broadcasts as transfers with their real
      pickled byte counts, and publishes a per-device ``heartbeat`` per
      reply.  With a bus ``heartbeat_interval`` the reply-deadline poll
      is sliced so a silent worker raises ``heartbeat.missed`` before
      the deadline failover fires;
    * ``retry_policy`` / ``chaos`` / ``health_checks`` — any of them
      enables the fault-tolerant path: workers run every task through
      the shared retry envelope, which enforces ``policy.deadline`` per
      kernel, and the manager classifies pipe EOF / persistent failure /
      missed reply deadlines as device death and fails over (see module
      docstring).  The reply deadline is ``policy.deadline`` scaled by
      the message's kernel count, so a worker that never replies is
      still caught.  ``chaos`` ships its fault plan to every worker
      (specs select workers via their ``device`` field);
    * ``checkpoint_every`` counts *panels* (panel-aligned snapshots);
    * ``backend`` travels by name and is resolved in every worker, so it
      must be registered at import time; the failover replay uses it
      too;
    * ``bundle_out`` bundles additionally embed the plan and its audit.

    Notes
    -----
    The manager follows the paper's Sec. IV-D loop exactly: factor panel
    on the panel owner, broadcast factors to every participant with
    remaining columns, migrate column ``k+1`` to the next panel owner.
    """

    name = "multiprocess"

    def __init__(self, plan: DistributionPlan, **options):
        super().__init__(**options)
        self.plan = plan

    def _describe(self) -> dict:
        return {"devices": list(self.plan.participants)}

    def _factorize(self, a, tile_size: int, resume, opts) -> TiledQRFactorization:
        if resume is not None:
            tiled, k0, log0 = self._resume_state(resume)
            arr_shape = resume.shape
        else:
            tiled, arr_shape = coerce_input(a, tile_size)
            k0, log0 = 0, []
        b = tiled.tile_size
        p, q = tiled.grid_rows, tiled.grid_cols

        # Critical-path column priorities (see docs/PERFORMANCE.md):
        # each trailing column of each panel takes the best priority
        # position (highest bottom-level rank) among its update tasks, so
        # broadcasts hit the most critical columns — the upcoming panels
        # — first.  The DAG and its priority order are cached per shape.
        from ..dag import build_dag

        ref_dag = build_dag(p, q, opts.elimination, batch_updates=False)
        _, position = ref_dag.priority(b)
        col_first: dict[tuple[int, int], int] = {}
        # Each panel's factorization tasks in tree (emission) order.
        factor_tasks: dict[int, list[Task]] = {}
        for t, pos in zip(ref_dag.tasks, position):
            if factor_key(t) is not None:
                factor_tasks.setdefault(t.k, []).append(t)
            elif pos < col_first.get((t.k, t.col), len(position)):
                col_first[(t.k, t.col)] = pos

        tracer = opts.active_tracer
        metrics = opts.metrics
        bus = opts.bus
        backend = opts.backend
        policy = opts.policy
        resilient = policy is not None
        ckpt = _CheckpointWriter(
            opts.checkpoint_every, opts.checkpoint_path, ref_dag, tiled, arr_shape,
            metrics, tracer, bus,
        )

        # fork keeps worker startup cheap and the perf_counter clock
        # shared; elsewhere (Windows, macOS default) fall back to spawn
        # and rebase worker timestamps via a ClockSync handshake.
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(start_method)
        workers: dict[str, tuple] = {}
        dead: set[str] = set()
        clock_offset: dict[str, float] = {}

        def spawn(dev: str) -> None:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child, tracer is not None or bus is not None, opts.batch_updates,
                    dev, opts.fault_plan, policy, opts.health_checks, backend.name,
                ),
                daemon=True,
            )
            with blas_threads(1):  # a forked worker inherits the pin
                proc.start()
            child.close()
            workers[dev] = (parent, proc)

        def reap(dev: str) -> None:
            """Declare a worker dead and reclaim its process."""
            dead.add(dev)
            parent, proc = workers[dev]
            try:
                parent.close()
            except OSError:
                pass
            proc.join(timeout=0.5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)

        def alive() -> list[str]:
            return [d for d in self.plan.participants if d not in dead]

        def fold_reply(dev: str, deltas: dict, evts: list) -> None:
            """Add one reply's counter deltas and merge its kernel events
            (ClockSync-rebased) under the worker's device id."""
            if metrics is not None:
                for name, n in deltas.items():
                    metrics.counter(name).inc(n)
            off = clock_offset.get(dev, 0.0)
            for task, start, end in evts:
                start, end = start + off, end + off
                if tracer is not None:
                    tracer.record_task(task, dev, start, end, tile_size=b)
                if bus is not None:
                    bus.task_finish(task, dev, start=start, end=end)

        def ask(dev: str, msg, xfer=None, n_kernels: int = 1):
            """Round-trip one message; ``xfer=(src, bytes, tag)`` records
            the send leg (pickle + pipe write) as a transfer.

            In resilient mode every failure mode — EOF, error status,
            missed deadline — surfaces as :class:`_WorkerDied` so the
            panel transaction can fail over; otherwise failures raise
            :class:`SimulationError` as before.  With a live bus whose
            ``heartbeat_interval`` is set, the deadline wait is sliced
            into heartbeat intervals: each silent slice publishes a
            ``heartbeat.missed`` event, so a hung worker is visible well
            before the deadline expires and the failover fires.
            """
            if dev in dead:
                raise _WorkerDied(dev, "already declared dead")
            conn = workers[dev][0]
            try:
                t0 = perf_counter()
                conn.send(msg)
                if tracer is not None and xfer is not None:
                    src, nbytes, tag = xfer
                    tracer.record_transfer(
                        src=src, dst=dev, num_bytes=nbytes,
                        start=t0, end=perf_counter(), tag=tag,
                    )
                if policy is not None and policy.deadline is not None:
                    budget = policy.deadline * max(1, n_kernels) + 1.0
                    hb = bus.heartbeat_interval if bus is not None else None
                    step = hb if hb is not None and hb < budget else budget
                    waited = 0.0
                    while not conn.poll(min(step, budget - waited)):
                        waited += min(step, budget - waited)
                        if waited >= budget:
                            if metrics is not None:
                                metrics.counter("resilience.timeouts").inc()
                            raise _WorkerDied(dev, f"no reply within {budget:.1f}s (hung?)")
                        bus.publish("heartbeat.missed", dev, {
                            "silent_seconds": waited, "budget": budget,
                            "message": type(msg).__name__,
                        })
                status, payload, deltas, evts = conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                err = _WorkerDied(dev, f"pipe closed ({type(exc).__name__})")
                if resilient:
                    raise err from None
                raise SimulationError(str(err)) from None
            fold_reply(dev, deltas, evts)
            if bus is not None:
                bus.publish("heartbeat", dev, {"message": type(msg).__name__})
            if status != "ok":
                if resilient:
                    raise _WorkerDied(dev, str(payload))
                raise SimulationError(f"worker {dev} failed: {payload}")
            return payload

        # -- manager-side redundancy for failover -------------------------
        # Pristine input columns + per-column base replay level.  A lost
        # trailing column j is rebuilt by replaying panel factors
        # base_level[j]+1 .. applied[j] against base[j].
        base: dict[int, list[np.ndarray]] = {}
        base_level: dict[int, int] = {}
        applied: dict[int, int] = {}
        panel_factors: dict[int, list] = {}
        shadow_r: dict[int, list[np.ndarray]] = {}
        panel_done: dict[int, bool] = {}
        current_main = self.plan.main_device

        def replay_column(j: int) -> list[np.ndarray]:
            """Reconstruct trailing column ``j`` manager-side.

            Replays panels ``base_level[j]+1 .. applied[j]`` as per-tile
            update tasks through :func:`apply_task` against the pristine
            base column — the tasks a per-tile worker runs, in the same
            order, so the rebuilt column is bit-identical to the lost one.
            """
            col = _Columns({j: [t.copy() for t in base[j]]})
            for kk in range(base_level[j] + 1, applied[j] + 1):
                factors = {factor_key(t): f for t, f in panel_factors[kk]}
                for ft, _f in panel_factors[kk]:
                    apply_task(_update_task(ft, j), col, factors, backend=backend)
            return col.cols[j]

        def recover_column(j: int) -> list[np.ndarray]:
            if panel_done.get(j):
                return [t.copy() for t in shadow_r[j]]
            return replay_column(j)

        n_panels = min(p, q)
        col_home = {j: self.plan.column_owner(j) for j in range(q)}
        log: list[tuple[Task, object]] = list(log0)

        def panel_owner(k: int) -> str:
            if self.plan.panel_follows_column:
                owner = col_home[k]
                return owner if owner not in dead else current_main
            return current_main

        def note_death(dev: str, k: int, reason: str) -> None:
            """Record one device death: reap it and re-elect the main.

            Never raises — the recovery work (column migration) happens in
            :func:`rehome_stranded`, which the panel transaction re-enters
            until it succeeds even if further devices die during it.
            """
            nonlocal current_main
            if dev in dead:
                return
            reap(dev)
            if metrics is not None:
                metrics.counter("resilience.worker_deaths").inc()
                metrics.counter("resilience.failovers").inc()
            survivors = alive()
            if current_main == dev and survivors:
                current_main = max(
                    survivors,
                    key=lambda d: self.plan.system.device(d).update_throughput(b),
                )
            if tracer is not None:
                tracer.record_annotation(
                    "failover",
                    f"{dev} died at panel {k} ({reason}); main={current_main}",
                    dev,
                )
            if bus is not None:
                bus.publish(
                    "failover",
                    dev,
                    {
                        "died": True,
                        "panel": k,
                        "reason": reason,
                        "main": current_main,
                        "detail": f"{dev} died at panel {k} ({reason})",
                    },
                )

        def rehome_stranded(k: int) -> None:
            """Migrate every column stranded on a dead device to survivors.

            Re-invokes the guide-array construction (paper Alg. 4) over
            the surviving devices to decide the new homes; stranded
            columns are rebuilt manager-side (shadow R / factor replay)
            and installed with ``ReceiveColumn``.  May raise
            :class:`_WorkerDied` if a survivor dies mid-migration — the
            panel transaction loops back through :func:`note_death`.
            """
            from ..core.distribution import guide_for_participants
            from ..errors import PlanError, ReproError

            stranded = sorted(j for j in range(q) if col_home[j] in dead)
            if not stranded:
                return
            survivors = alive()
            if not survivors:
                raise WorkerFailoverError(
                    f"no surviving devices to fail over to at panel {k}; "
                    f"columns {stranded} are unrecoverable in-flight"
                )
            try:
                _ratio, guide = guide_for_participants(
                    self.plan.system, survivors, current_main, p, q, b
                )
            except (PlanError, ReproError):
                guide = list(survivors)
            if not guide:
                guide = list(survivors)
            moved_to = []
            for idx, j in enumerate(stranded):
                new_owner = guide[idx % len(guide)]
                tiles = recover_column(j)
                ask(new_owner, ReceiveColumn(col=j, tiles=tiles))
                col_home[j] = new_owner
                moved_to.append(new_owner)
            if tracer is not None:
                tracer.record_annotation(
                    "failover",
                    f"migrated column(s) {stranded} -> "
                    f"{{{', '.join(sorted(set(moved_to)))}}}",
                    "manager",
                )
            if bus is not None:
                bus.publish(
                    "failover",
                    "manager",
                    {
                        "died": False,
                        "panel": k,
                        "columns": stranded,
                        "to": sorted(set(moved_to)),
                        "detail": f"migrated column(s) {stranded}",
                    },
                )

        def run_panel(k: int) -> None:
            owner_p = panel_owner(k)
            if col_home[k] != owner_p:
                t0 = perf_counter()
                tiles = ask(col_home[k], SendColumn(col=k))
                ask(owner_p, ReceiveColumn(col=k, tiles=tiles))
                if tracer is not None:
                    tracer.record_transfer(
                        src=col_home[k], dst=owner_p,
                        num_bytes=float(sum(t.nbytes for t in tiles)),
                        start=t0, end=perf_counter(), tag=f"col{k}",
                    )
                col_home[k] = owner_p
            if not panel_done.get(k):
                tasks = factor_tasks[k]
                factors, r_col = ask(
                    owner_p, FactorPanel(k=k, tasks=tasks), n_kernels=len(tasks)
                )
                panel_factors[k] = factors
                shadow_r[k] = r_col
                panel_done[k] = True
                log.extend(factors)
            factors = panel_factors[k]
            bcast_bytes = float(sum(
                x.nbytes for _t, f in factors for x in vars(f).values()
                if isinstance(x, np.ndarray)
            ))

            def crit(j: int) -> int:
                return col_first.get((k, j), len(position))

            # Broadcast to every device holding columns that have not yet
            # absorbed this panel's update — devices and columns ordered
            # by critical-path rank so the next panels' columns (and the
            # devices holding them) update first.
            pending: dict[str, list[int]] = {}
            for j in range(k + 1, q):
                dev = col_home[j]
                if dev in dead or applied.get(j, -1) >= k:
                    continue
                pending.setdefault(dev, []).append(j)
            for dev, cols in sorted(
                pending.items(), key=lambda item: min(map(crit, item[1]))
            ):
                cols.sort(key=crit)
                xfer = (owner_p, bcast_bytes, f"bcast{k}") if dev != owner_p else None
                ask(
                    dev,
                    Update(k=k, factors=factors, cols=cols),
                    xfer=xfer,
                    n_kernels=len(cols) * max(1, p - k),
                )
                for j in cols:
                    applied[j] = k
            applied[k] = n_panels  # finished R column; never a replay target

        def gather(k: int, when: str, final: bool = False) -> None:
            """Pull every live column into ``tiled`` after panel ``k``.

            A device that dies mid-gather has its columns rebuilt
            manager-side at their last applied watermark, which a panel
            boundary makes exact (mid-run, the stranded columns re-home
            at the next panel).  The ``final`` gather also shuts the
            workers down.
            """
            gathered: set[int] = set()
            for dev in list(alive()):
                try:
                    for j, tiles in ask(dev, Collect()).items():
                        for i in range(p):
                            tiled.set_tile(i, j, tiles[i])
                        gathered.add(j)
                    if final:
                        ask(dev, Shutdown())
                except _WorkerDied as exc:
                    note_death(exc.device, k, f"died {when}: {exc.reason}")
            for j in range(q):
                if j not in gathered:
                    if not resilient:
                        raise SimulationError(f"column {j} lost at gather")
                    tiles = recover_column(j)
                    for i in range(p):
                        tiled.set_tile(i, j, tiles[i])

        try:
            self._run_started(bus, ref_dag, tiled, panels=n_panels - k0)
            for dev in self.plan.participants:
                spawn(dev)

            # --- clock handshake (traced or live-telemetry runs) ---------
            if tracer is not None or bus is not None:
                for dev in self.plan.participants:
                    if start_method == "fork":
                        clock_offset[dev] = 0.0  # shared CLOCK_MONOTONIC
                    else:
                        t0 = perf_counter()
                        worker_now = ask(dev, ClockSync())
                        t1 = perf_counter()
                        clock_offset[dev] = 0.5 * (t0 + t1) - worker_now

            # --- initial distribution (owned columns per device) --------
            per_dev: dict[str, dict[int, list[np.ndarray]]] = {
                d: {} for d in self.plan.participants
            }
            for j in range(q):
                owner = col_home[j]
                tiles = [tiled.tile(i, j).copy() for i in range(p)]
                per_dev[owner][j] = tiles
                if resilient:
                    base[j] = [t.copy() for t in tiles]
                    base_level[j] = k0 - 1
                    applied[j] = k0 - 1
            for j in range(k0):  # resumed runs: finished R columns
                panel_done[j] = True
                shadow_r[j] = base.get(j, [tiled.tile(i, j).copy() for i in range(p)])
                applied[j] = n_panels
            for dev, cols in per_dev.items():
                ask(dev, LoadColumns(columns=cols))

            # --- panel loop (paper Sec. IV-D) ----------------------------
            for k in range(k0, n_panels):
                if resilient:
                    # Panel-as-transaction: any device death rolls the
                    # loop back to re-home stranded columns and replay
                    # the panel from its frontier.  The applied/
                    # panel_done watermarks make the replay exact.
                    while True:
                        try:
                            rehome_stranded(k)
                            run_panel(k)
                            break
                        except _WorkerDied as exc:
                            note_death(exc.device, k, exc.reason)
                else:
                    run_panel(k)
                if ckpt.task_done() and k + 1 < n_panels:
                    # Panel-aligned snapshot: exactly the finished panels.
                    gather(k, "during checkpoint")
                    done = [t for t in ref_dag.tasks if t.k <= k]
                    ckpt.write(done, log, device="manager")

            # --- gather the R factor -------------------------------------
            gather(n_panels, "at gather", final=True)
        finally:
            for parent, proc in workers.values():
                try:
                    parent.close()
                except OSError:
                    pass
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - hygiene
                    proc.terminate()

        self._run_finished(bus, panels=n_panels - k0, deaths=len(dead))
        return TiledQRFactorization(r=tiled, log=log, shape=arr_shape)

    def _resume_state(self, resume):
        """Validate a panel-aligned partial snapshot for this runtime."""
        from ..dag import build_dag
        from .checkpoint import CheckpointError

        # Workers run the per-tile DAG, so only per-tile snapshots fit.
        elimination = self.options.elimination
        tiled = resume.tiled
        p, q = tiled.grid_rows, tiled.grid_cols
        dag = build_dag(p, q, elimination, batch_updates=False)
        done = check_resume_state(resume, dag, tiled, elimination, False)
        panel_size = Counter(t.k for t in dag.tasks)
        panel_done = Counter(dag.tasks[tid].k for tid in done)
        done_panels = 0
        for k in range(min(p, q)):
            n_done, n = panel_done[k], panel_size[k]
            if n_done == n:
                done_panels = k + 1
            elif n_done == 0:
                break
            else:
                raise CheckpointError(
                    f"multiprocess resume requires panel-aligned snapshots; "
                    f"panel {k} is only partially complete ({n_done}/{n} "
                    f"tasks) — resume it with the serial or threaded runtime"
                )
        if len(done) != sum(panel_size[k] for k in range(done_panels)):
            raise CheckpointError(
                "multiprocess resume requires panel-aligned snapshots — "
                "resume this one with the serial or threaded runtime"
            )
        return tiled, done_panels, list(resume.log)
