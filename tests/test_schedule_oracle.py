"""The serial runtime executes the documented critical-path list schedule.

Any topological order yields a bit-identical R, so the numeric tests
cannot see the schedule.  These tests pin it: the highest flop-weighted
bottom-level rank runs first (:func:`bottom_level_ranks` under
:func:`task_weight_model`), DAG emission order breaks ties, and a run
resumed from a mid-run checkpoint continues the same order.  The
reference schedule is written here from the Task-keyed ``preds`` view,
independently of the runtime's id arrays and cached priority order.
"""

from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from repro.dag import bottom_level_ranks, build_dag, task_weight_model, tree_names
from repro.errors import RetryExhaustedError
from repro.resilience import NO_RETRY, ChaosEngine, FaultKind, FaultPlan, FaultSpec
from repro.runtime.checkpoint import load_partial_factorization
from repro.runtime.serial import SerialRuntime

GRID = (6, 4)
B = 8


def reference_schedule(dag, tile_size: int) -> list:
    """One-processor list schedule on ``(-rank, emission position)``."""
    ranks = bottom_level_ranks(dag, task_weight_model(tile_size))
    waiting = {t: len(dag.preds[t]) for t in dag.tasks}
    dependents: dict = {t: [] for t in dag.tasks}
    for t in dag.tasks:
        for d in dag.preds[t]:
            dependents[d].append(t)
    heap = [(-ranks[t], n) for n, t in enumerate(dag.tasks) if waiting[t] == 0]
    heapify(heap)
    order = []
    while heap:
        task = dag.tasks[heappop(heap)[1]]
        order.append(task)
        for s in dependents[task]:
            waiting[s] -= 1
            if waiting[s] == 0:
                heappush(heap, (-ranks[s], dag.tasks.index(s)))
    return order


class RecordingSerial(SerialRuntime):
    """A serial runtime that keeps the completion order of its last run."""

    def _dispatch(self, run) -> None:
        super()._dispatch(run)
        self.order = list(run.completed_order)


def _matrix() -> np.ndarray:
    return np.random.default_rng(11).standard_normal((GRID[0] * B, GRID[1] * B))


CASES = [(tree, batch) for tree in tree_names() for batch in (False, True)]


@pytest.mark.parametrize("tree,batch", CASES)
def test_serial_runs_the_reference_schedule(tree, batch):
    runtime = RecordingSerial(tree, batch_updates=batch)
    runtime.factorize(_matrix(), B)
    assert runtime.order == reference_schedule(build_dag(*GRID, tree, batch), B)


@pytest.mark.parametrize("tree,batch", CASES)
def test_resume_continues_the_reference_schedule(tree, batch, tmp_path):
    expected = reference_schedule(build_dag(*GRID, tree, batch), B)
    path = tmp_path / "snap.npz"
    crash = FaultPlan(specs=(
        FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=2, times=99),
    ))
    interrupted = SerialRuntime(
        tree, batch_updates=batch, chaos=ChaosEngine(crash), retry_policy=NO_RETRY,
        checkpoint_every=5, checkpoint_path=path,
    )
    with pytest.raises(RetryExhaustedError):
        interrupted.factorize(_matrix(), B)
    state = load_partial_factorization(path)
    done = list(state.completed)
    assert 0 < len(done) < len(expected)
    assert done == expected[: len(done)]

    resumed = RecordingSerial(tree, batch_updates=batch)
    resumed.factorize(state.tiled, resume=state)
    assert resumed.order == expected
