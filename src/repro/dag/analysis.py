"""Structural analysis of the tiled-QR DAG.

Includes the paper's Table I counting model, the exact per-panel counts
the DAG actually contains, and generic DAG metrics (critical path, width)
used by the simulator's lower-bound checks.
"""

from __future__ import annotations

from typing import Callable

from .tasks import Step, Task
from .builder import TiledQRDag


def step_counts(m: int, n: int) -> dict[Step, int]:
    """The paper's Table I: tiles operated per step for an M x N panel.

    The paper counts the whole M-tile panel column under both T and E
    (M each) and attributes ``M x (N-1)`` tiles to each update step — an
    upper-bound accounting that treats every updated tile as receiving
    both kinds of update.  :func:`dag_step_counts` gives the exact task
    counts of the flat-tree DAG for comparison.
    """
    if m < 1 or n < 1:
        raise ValueError(f"panel must be at least 1x1, got {m}x{n}")
    return {
        Step.T: m,
        Step.E: m,
        Step.UT: m * (n - 1),
        Step.UE: m * (n - 1),
    }


def dag_step_counts(m: int, n: int) -> dict[Step, int]:
    """Exact task counts of one flat-tree (TS) panel over an M x N grid."""
    if m < 1 or n < 1:
        raise ValueError(f"panel must be at least 1x1, got {m}x{n}")
    return {
        Step.T: 1,
        Step.E: m - 1,
        Step.UT: n - 1,
        Step.UE: (m - 1) * (n - 1),
    }


def task_counts_total(p: int, q: int) -> dict[Step, int]:
    """Exact total task counts of the full flat-tree DAG on a p x q grid.

    Closed form — matches ``len(build_dag(p, q).tasks)`` without building
    the DAG, so it is usable for the paper's 1000 x 1000 grids.
    """
    totals = {s: 0 for s in Step}
    for k in range(min(p, q)):
        c = dag_step_counts(p - k, q - k)
        for s in Step:
            totals[s] += c[s]
    return totals


def critical_path_length(
    dag: TiledQRDag,
    weight: Callable[[Task], float] | None = None,
) -> float:
    """Longest weighted path through the DAG.

    Parameters
    ----------
    dag:
        The task DAG.
    weight:
        Per-task cost; defaults to 1 (path length in tasks).

    Returns
    -------
    float
        The makespan lower bound for infinitely many devices.
    """
    w = weight if weight is not None else (lambda _t: 1.0)
    finish = [0.0] * len(dag.tasks)
    for i, t in enumerate(dag.tasks):  # emission order is topological
        preds = dag.pred_ids(i)
        start = max(map(finish.__getitem__, preds)) if preds else 0.0
        finish[i] = start + w(t)
    return max(finish, default=0.0)


def bottom_level_ranks(
    dag: TiledQRDag,
    weight: Callable[[Task], float] | None = None,
) -> dict[Task, float]:
    """Per-task *bottom-level* rank: the weighted length of the longest
    path from the task to any sink, inclusive of the task itself.

    The classic list-scheduling priority: popping the highest-rank ready
    task first always advances the remaining critical path, which is
    what bounds makespan once kernel throughput is saturated.  Ranks are
    monotone along every edge — ``rank(pred) > rank(succ)`` — because a
    predecessor's longest tail passes through (or exceeds) each
    successor's.

    Parameters
    ----------
    dag:
        The task DAG.
    weight:
        Per-task cost (seconds or flops — only relative magnitudes
        matter); defaults to 1 per task.
    """
    return dict(zip(dag.tasks, dag.bottom_levels(weight)))


def task_weight_model(
    tile_size: int,
    profile=None,
    device: str | None = None,
) -> Callable[[Task], float]:
    """Per-task cost model for :func:`bottom_level_ranks`.

    With a :class:`~repro.observability.profile.ProfileStore`, measured
    mean per-call seconds price each kernel kind; kinds the store has
    never seen are priced by their flop count converted at the store's
    achieved flop rate (so mixed measured/unmeasured weights stay in one
    unit).  Without a profile — or with an empty one — weights are plain
    flop counts.  Batched kinds pool with their single kind in the store
    and scale by column count.
    """
    from ..kernels import flops as fl

    flop_of = {
        "GEQRT": fl.flops_geqrt(tile_size),
        "UNMQR": fl.flops_unmqr(tile_size),
        "TSQRT": fl.flops_tsqrt(tile_size),
        "TSMQR": fl.flops_tsmqr(tile_size),
        "TTQRT": fl.flops_ttqrt(tile_size),
        "TTMQR": fl.flops_ttmqr(tile_size),
    }

    seconds: dict[str, float] = {}
    if profile is not None:
        total_flops = 0.0
        total_seconds = 0.0
        for name in flop_of:
            stats = profile.stats(name, device=device, tile_size=tile_size)
            if stats is not None and stats.mean_seconds > 0.0:
                seconds[name] = stats.mean_seconds
                total_seconds += stats.mean_seconds
                total_flops += flop_of[name]
        if seconds and total_flops > 0.0:
            rate = total_flops / total_seconds  # achieved flops/sec
            for name, f in flop_of.items():
                seconds.setdefault(name, f / rate)

    per_call = seconds if seconds else flop_of

    def weight(task: Task) -> float:
        base = per_call[task.kind.single.name]
        return base * task.ncols if task.is_batch else base

    return weight


def max_parallelism(dag: TiledQRDag) -> int:
    """Width of the DAG under greedy level scheduling.

    The number of tasks that become ready in the widest unit-time level
    when every task costs 1 — an (optimistic) parallelism indicator used
    in scalability discussions.
    """
    level = [0] * len(dag.tasks)
    width: dict[int, int] = {}
    for i in range(len(dag.tasks)):
        preds = dag.pred_ids(i)
        lv = max(map(level.__getitem__, preds)) + 1 if preds else 0
        level[i] = lv
        width[lv] = width.get(lv, 0) + 1
    return max(width.values(), default=0)


def per_panel_ready_updates(p: int, q: int, k: int) -> int:
    """Tiles updated in panel ``k`` — the parallel work pool the paper's
    ``#tile(i)`` distributes over devices (Eq. 10)."""
    m = p - k
    n = q - k
    return m * (n - 1)
