"""The multiprocess runtime's shared-memory arena never outlives a call.

Each call creates one ``multiprocessing.shared_memory`` segment.  It must
be gone when ``factorize`` returns, raises on a worker error, or raises
:class:`~repro.errors.WorkerFailoverError`, under ``fork`` and under the
``spawn`` start method (macOS and Windows), where workers attach by name.
"""

import multiprocessing
import os
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

import repro.runtime.arena
import repro.runtime.multiprocess as mp_runtime
from repro.dag.tasks import Task, TaskKind
from repro.errors import SimulationError, WorkerFailoverError
from repro.kernels.backends import register_backend, unregister_backend
from repro.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import tiled_qr
from tests.conftest import clone_reference

N, B = 64, 16


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method here")
    if request.param == "spawn":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    return request.param


@pytest.fixture
def arenas(monkeypatch):
    """The names of the segments the runtime creates."""
    names = []

    class Recording(SharedMemory):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(repro.runtime.arena, "SharedMemory", Recording)
    return names


def _assert_unlinked(names):
    assert len(names) == 1
    with pytest.raises(FileNotFoundError):
        SharedMemory(name=names[0])


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(5).standard_normal((N, N))


@pytest.fixture(scope="module")
def plan(optimizer):
    return optimizer.plan(matrix_size=N, tile_size=B, num_devices=2)


def test_unlinked_after_a_call(start_method, arenas, matrix, plan, capfd):
    fact = mp_runtime.MultiprocessRuntime(plan).factorize(matrix.copy(), B)
    assert np.array_equal(fact.r_dense(), tiled_qr(matrix, B).r_dense())
    _assert_unlinked(arenas)
    # Workers neither unlink the segment nor complain about it at exit.
    err = capfd.readouterr().err
    assert "resource_tracker" not in err and "Exception ignored" not in err


def test_unlinked_after_a_worker_error(start_method, arenas, matrix, plan):
    # Fork workers inherit the failing backend; spawned workers cannot
    # resolve its name.  Either way a worker fails and the call raises.
    def broken(*_args, **_kwargs):
        raise RuntimeError("kernel failed")

    register_backend(clone_reference("arena-broken", geqrt=broken))
    try:
        with pytest.raises(SimulationError, match="worker"):
            mp_runtime.MultiprocessRuntime(plan, backend="arena-broken").factorize(
                matrix.copy(), B
            )
    finally:
        unregister_backend("arena-broken")
    _assert_unlinked(arenas)


def test_unlinked_after_failover_error(start_method, arenas, matrix, plan):
    kill_all = FaultPlan(specs=tuple(
        FaultSpec(FaultKind.KILL_WORKER, k=1, device=d) for d in plan.participants
    ))
    with pytest.raises(WorkerFailoverError):
        mp_runtime.MultiprocessRuntime(
            plan, retry_policy=RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0),
            chaos=kill_all,
        ).factorize(matrix.copy(), B)
    _assert_unlinked(arenas)


def test_death_after_a_kernel_restores_its_write_set(arenas, matrix, plan, tmp_path):
    """A worker that dies after its kernel wrote the tiles, before it
    committed the task: the manager puts the write set back from the
    worker's slot, so the survivor's replay leaves R bit-identical."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the dying backend reaches workers only through fork")
    marker = tmp_path / "died"
    reference = clone_reference("arena-probe")

    def tsmqr_then_die(*args, **kwargs):
        reference.tsmqr(*args, **kwargs)
        if not marker.exists():
            marker.touch()
            os._exit(17)  # the tiles are updated, the task is not committed

    register_backend(clone_reference("arena-dies", tsmqr=tsmqr_then_die))
    try:
        fact = mp_runtime.MultiprocessRuntime(
            plan, backend="arena-dies",
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0),
        ).factorize(matrix.copy(), B)
    finally:
        unregister_backend("arena-dies")
    assert marker.exists()
    assert np.array_equal(fact.r_dense(), tiled_qr(matrix, B).r_dense())
    _assert_unlinked(arenas)


def test_batches_are_cut_by_current_ownership(optimizer):
    """A ready batch is cut where column ownership changes, the same
    ownership the manager places tasks by: once a failover moves a dead
    worker's columns, its old boundaries no longer cut batches."""
    plan3 = optimizer.plan(matrix_size=96, tile_size=16, num_devices=3)
    owners = mp_runtime.MultiprocessRuntime(plan3).splitter()
    batch = Task(TaskKind.TSMQR_BATCH, 0, 1, 0, 1, 6)
    chunks = owners(batch)
    assert [(c.col, c.col_end) for c in chunks] == [(j, j + 1) for j in range(1, 6)]
    assert {owners[c.col] for c in chunks} == set(plan3.guide_array) and len(plan3.guide_array) == 2
    survivor, dead = plan3.guide_array
    owners.home.update({j: survivor for j in range(6) if owners[j] == dead})
    assert owners(batch) == [batch]
