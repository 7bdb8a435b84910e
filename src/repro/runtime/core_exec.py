"""Shared task-application core for the numeric runtimes.

A single function maps one DAG task onto the tile kernels; every
runtime calls it, so they cannot diverge.  It looks the kernels up in
the kernel table (:data:`repro.kernels.backends.TABLE`) on every call,
so a table swapped in with ``register_backend(..., replace=True)``
reaches the next task of every runtime.  The
coarsened ``*_BATCH`` update tasks route through the row-panel kernels
(:mod:`repro.kernels.batched`) — zero-copy panel views when the matrix
is in row-major storage, gather/scatter otherwise.

:func:`apply_task_resilient` wraps the same core in the fault-tolerance
envelope (see :mod:`repro.resilience`): because a task's write set is
explicit (the same access rules the DAG builder derives dependencies
from), a failed attempt can restore exactly the tiles it touched and
replay the kernel — a retry-masked fault leaves the factorization
bit-identical to a clean run.
"""

from __future__ import annotations

import time as _time
from time import perf_counter
from typing import Union

from ..dag.builder import task_accesses
from ..dag.tasks import Task, TaskKind
from ..errors import DAGError, RetryExhaustedError, TaskTimeoutError
from ..kernels import backends
from ..kernels.geqrt import GEQRTResult
from ..kernels.tsqrt import TSQRTResult
from ..kernels.workspace import Workspace
from ..tiles import TiledMatrix

Factors = Union[GEQRTResult, TSQRTResult]

_GEQRT, _UNMQR, _TSQRT, _TTQRT, _TSMQR, _TTMQR = (
    TaskKind.GEQRT, TaskKind.UNMQR, TaskKind.TSQRT, TaskKind.TTQRT, TaskKind.TSMQR, TaskKind.TTMQR
)


def apply_task(
    task: Task,
    a: TiledMatrix,
    factors: dict[tuple, Factors],
    workspace: Workspace | None = None,
) -> Factors | None:
    """Execute one task against the tiled matrix, in place.

    Parameters
    ----------
    task:
        The DAG task to run (per-tile or batched).
    a:
        The matrix being factorized (tiles mutated in place).
    factors:
        Shared factor store keyed by ``("Vg"|"Ve", row, k)``; factorization
        tasks insert, update tasks read.  The threaded runtime relies on
        plain-dict atomicity under the GIL plus DAG ordering for safety.
    workspace:
        Scratch arena for the update kernels' GEMMs.  Must be private to
        the calling worker; ``None`` uses the thread-local default.

    Returns
    -------
    The factors produced (for factorization tasks) or ``None`` (updates).
    """
    kern = backends.TABLE
    kind, k = task.kind, task.k
    tiles = a.tile_rows
    # Per-tile TSMQR is most of every DAG's tasks: tested first.
    if kind is _TSMQR or kind is _TTMQR:
        fn = kern.tsmqr if kind is _TSMQR else kern.ttmqr
        c1, c2 = tiles[task.row2][task.col], tiles[task.row][task.col]
        fn(factors[("Ve", task.row, k)], c1, c2, workspace=workspace)
        return None
    if kind is _UNMQR:
        kern.unmqr(factors[("Vg", task.row, k)], tiles[task.row][task.col], workspace=workspace)
        return None
    if kind is _GEQRT:
        f = kern.geqrt(tiles[task.row][k])
        a.set_tile(task.row, k, f.r)
        factors[("Vg", task.row, k)] = f
        return f
    if kind is _TSQRT or kind is _TTQRT:
        top, bot = tiles[task.row2][k], tiles[task.row][k]
        fe = kern.tsqrt(top, bot) if kind is _TSQRT else kern.ttqrt(top, bot)
        a.set_tile(task.row2, k, fe.r)
        bot[...] = 0.0
        factors[("Ve", task.row, k)] = fe
        return fe
    if kind is TaskKind.UNMQR_BATCH:
        f = factors[("Vg", task.row, k)]
        panel = a.row_panel(task.row, task.col, task.col_end)
        kern.unmqr_batch(f, panel, workspace=workspace)
        a.scatter_row_panel(task.row, task.col, task.col_end, panel)
        return None
    if kind in (TaskKind.TSMQR_BATCH, TaskKind.TTMQR_BATCH):
        fe = factors[("Ve", task.row, k)]
        fn = kern.tsmqr_batch if kind is TaskKind.TSMQR_BATCH else kern.ttmqr_batch
        top = a.row_panel(task.row2, task.col, task.col_end)
        bot = a.row_panel(task.row, task.col, task.col_end)
        fn(fe, top, bot, workspace=workspace)
        a.scatter_row_panel(task.row2, task.col, task.col_end, top)
        a.scatter_row_panel(task.row, task.col, task.col_end, bot)
        return None
    raise DAGError(f"unknown task kind {task.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Fault-tolerant execution envelope
# ---------------------------------------------------------------------------


def task_written_tiles(task: Task, a: TiledMatrix):
    """The live tile views a task writes (from the DAG access rules)."""
    _reads, writes = task_accesses(task)
    return [a.tile(i, j) for key, i, j in writes if key == "t"]


def factor_key(task: Task) -> tuple | None:
    """The factor-store key a factorization task inserts (None for updates)."""
    if task.kind is TaskKind.GEQRT:
        return ("Vg", task.row, task.k)
    if task.kind in (TaskKind.TSQRT, TaskKind.TTQRT):
        return ("Ve", task.row, task.k)
    return None


def apply_task_resilient(
    task: Task,
    a: TiledMatrix,
    factors: dict[tuple, Factors],
    workspace: Workspace | None = None,
    *,
    policy,
    chaos=None,
    health: bool = False,
    health_ref_norm: float | None = None,
    metrics=None,
    tracer=None,
    device: str = "local",
    bus=None,
    save=None,
) -> Factors | None:
    """Execute one task under retry/chaos/health semantics.

    Same contract as :func:`apply_task`, plus:

    * before the first attempt the task's written tiles are saved, so a
      failed attempt restores them exactly and the replay starts from
      pristine inputs (bit-identical masking); ``save``, when given,
      takes the list of written tiles, copies them where it keeps them
      and returns the copies (default: private copies);
    * ``chaos`` (a :class:`repro.resilience.ChaosEngine`) may inject a
      kernel exception, delay/hang, or output corruption;
    * with ``health=True`` the written tiles are NaN/Inf-checked after
      the kernel (:func:`repro.resilience.check_task_outputs`); when
      ``health_ref_norm`` (the pre-factorization Frobenius norm) is also
      given, factorization tasks additionally run the per-panel residual
      probe (:func:`repro.resilience.panel_residual_probe`) over the
      R tile they produced — catching finite-but-garbage corruption;
    * an attempt exceeding ``policy.deadline`` wall-clock seconds is
      classified as a hang (:class:`~repro.errors.TaskTimeoutError`) and
      retried like any failure;
    * retries are counted on ``metrics`` (``resilience.retries``),
      annotated on ``tracer``, and published as ``retry`` events on
      ``bus`` (a :class:`repro.observability.TelemetryBus`, when live
      telemetry is on); every failed attempt additionally publishes a
      ``task.error`` event (task, attempt, error type/message,
      retryability) — the flight recorder's raw material; exhausting
      the policy raises :class:`~repro.errors.RetryExhaustedError`
      chained to the last failure.
    """
    from ..resilience.health import check_task_outputs, panel_residual_probe

    written = task_written_tiles(task, a)
    snapshot = [t.copy() for t in written] if save is None else save(written)
    fkey = factor_key(task)
    last_exc: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            if metrics is not None:
                metrics.counter("resilience.retries").inc()
            if tracer is not None:
                tracer.record_annotation(
                    "retry",
                    f"attempt {attempt}/{policy.max_attempts} of {task.label()}: {last_exc}",
                    device,
                )
            if bus is not None:
                bus.publish(
                    "retry",
                    device,
                    {
                        "task": task.label(),
                        "attempt": attempt,
                        "max_attempts": policy.max_attempts,
                        "error": str(last_exc),
                    },
                )
            pause = policy.backoff_seconds(attempt, key=task.sort_key())
            if pause > 0.0:
                _time.sleep(pause)
        try:
            # The deadline clock covers the injection point too: a HANG
            # fault stalls the kernel slot and must count as a hang.
            t0 = perf_counter()
            if chaos is not None:
                chaos.before_task(task, device)
            produced = apply_task(task, a, factors, workspace)
            elapsed = perf_counter() - t0
            if policy.deadline is not None and elapsed > policy.deadline:
                raise TaskTimeoutError(
                    f"{task.label()} took {elapsed:.3f}s "
                    f"(deadline {policy.deadline:.3f}s); classifying as hung"
                )
            if chaos is not None:
                chaos.corrupt_outputs(task, written, device)
            if health:
                check_task_outputs(task, written)
                if health_ref_norm is not None and fkey is not None:
                    # written[0] is the R tile every factorization task
                    # rewrites (the first entry of its write set).
                    panel_residual_probe(written[0], health_ref_norm, task.k)
            return produced
        except BaseException as exc:
            if isinstance(exc, TaskTimeoutError) and metrics is not None:
                metrics.counter("resilience.timeouts").inc()
            retryable = policy.is_retryable(exc)
            if bus is not None:
                bus.publish(
                    "task.error",
                    device,
                    {
                        "task": task.label(),
                        "attempt": attempt,
                        "max_attempts": policy.max_attempts,
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "retryable": retryable,
                    },
                )
            if retryable and attempt < policy.max_attempts:
                # Roll back this attempt: written tiles and any factor
                # entry the failed kernel may have inserted.
                for tile, saved in zip(written, snapshot):
                    tile[...] = saved
                if fkey is not None:
                    factors.pop(fkey, None)
                last_exc = exc
                continue
            if retryable:
                raise RetryExhaustedError(
                    f"{task.label()} failed {policy.max_attempts} attempt(s); last: {exc}"
                ) from exc
            raise
    raise AssertionError("unreachable")  # pragma: no cover
