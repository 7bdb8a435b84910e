"""Device-failover tests for the multiprocess runtime.

The acceptance scenario from the reliability work: a seeded fault plan
kills one worker process mid-run *and* injects kernel exceptions; the
run must converge to a correct R (residual <= 1e-10), the trace must
record the failover, and the ``resilience.*`` counters must be non-zero.
"""

import numpy as np
import pytest

from repro.errors import WorkerFailoverError
from repro.observability import MetricsRegistry, Tracer
from repro.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import tiled_qr
from repro.runtime.multiprocess import MultiprocessRuntime

N = 96
B = 16
POLICY = RetryPolicy(max_attempts=3, backoff=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(777).standard_normal((N, N))


@pytest.fixture(scope="module")
def clean_r(matrix):
    return tiled_qr(matrix, B).r_dense()


def _run(dist, matrix, plan):
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    fact = MultiprocessRuntime(
        dist, tracer=tracer, retry_policy=POLICY, chaos=plan, metrics=metrics
    ).factorize(matrix.copy(), B)
    return fact, metrics.snapshot()["counters"], tracer.annotation_records()


def test_acceptance_kill_plus_exceptions(matrix, clean_r, optimizer):
    """One worker killed mid-run + two kernel exceptions: the run
    completes, R is bit-identical to the clean run, the failover and the
    retries are all visible in counters and trace annotations."""
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    victim = next(d for d in dist.participants if d != dist.main_device)
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR", k=2, device=victim),
        FaultSpec(FaultKind.EXCEPTION, task_kind="UNMQR", k=1, times=1),
        FaultSpec(FaultKind.EXCEPTION, task_kind="TSQRT", k=3, times=1),
    ), seed=42)
    fact, counters, annotations = _run(dist, matrix, plan)

    assert fact.reconstruction_error(matrix) <= 1e-10
    assert np.array_equal(fact.r_dense(), clean_r)
    assert counters["resilience.worker_deaths"] == 1
    assert counters["resilience.failovers"] >= 1
    assert counters["resilience.retries"] >= 2
    assert counters["resilience.faults_injected"] == 3
    failover_notes = [a for a in annotations if a.kind == "failover"]
    assert any("died" in a.label for a in failover_notes)
    assert any("migrated column" in a.label for a in failover_notes)


def test_kill_main_device(matrix, clean_r, optimizer):
    """Killing the *main* device forces a main re-election on top of the
    column migration; the survivors still finish correctly."""
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    # The main owns column 0, so its panel-0 factorization is the one
    # task guaranteed to run there.
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.KILL_WORKER, task_kind="GEQRT", k=0,
                  device=dist.main_device),
    ))
    fact, counters, annotations = _run(dist, matrix, plan)
    assert np.array_equal(fact.r_dense(), clean_r)
    assert counters["resilience.worker_deaths"] == 1
    # The death annotation names the re-elected main.
    died = next(a for a in annotations if a.kind == "failover" and "died" in a.label)
    assert dist.main_device in died.label


def test_two_deaths_leave_one_survivor(matrix, clean_r, optimizer):
    """Two of three devices die (at different panels); the single
    survivor inherits everything and completes alone."""
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    others = [d for d in dist.participants if d != dist.main_device]
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR", k=1, device=others[0]),
        FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR", k=3, device=others[1]),
    ))
    fact, counters, _ = _run(dist, matrix, plan)
    assert np.array_equal(fact.r_dense(), clean_r)
    assert counters["resilience.worker_deaths"] == 2
    assert counters["resilience.failovers"] >= 2


def test_all_devices_dead_raises(matrix, optimizer):
    """No survivors -> WorkerFailoverError, not a hang or garbage R."""
    dist = optimizer.plan(matrix_size=N, num_devices=2)
    plan = FaultPlan(specs=tuple(
        FaultSpec(FaultKind.KILL_WORKER, k=1, device=d) for d in dist.participants
    ))
    with pytest.raises(WorkerFailoverError, match="no surviving devices"):
        MultiprocessRuntime(
            dist, retry_policy=POLICY, chaos=plan
        ).factorize(matrix.copy(), B)


def test_worker_side_retry_stats_reach_manager(matrix, optimizer):
    """Retries that happen inside a worker process are folded back into
    the manager's metrics through the reply protocol."""
    dist = optimizer.plan(matrix_size=N, num_devices=2)
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=0, times=1),
        FaultSpec(FaultKind.EXCEPTION, task_kind="TSMQR", k=1, times=2),
    ))
    fact, counters, _ = _run(dist, matrix, plan)
    assert counters["resilience.retries"] == 3
    assert counters["resilience.faults_injected"] == 3
    assert fact.reconstruction_error(matrix) <= 1e-10


def test_hung_worker_is_detected_and_failed_over(matrix, clean_r, optimizer):
    """A worker that stops responding (hang far beyond the deadline) is
    declared dead by the manager's reply timeout and failed over."""
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    victim = next(d for d in dist.participants if d != dist.main_device)
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.HANG, task_kind="TSMQR", k=1, device=victim,
                  times=1, seconds=30.0),
    ))
    metrics = MetricsRegistry()
    policy = RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0, deadline=0.05)
    fact = MultiprocessRuntime(
        dist, retry_policy=policy, chaos=plan, metrics=metrics
    ).factorize(matrix.copy(), B)
    counters = metrics.snapshot()["counters"]
    assert counters["resilience.timeouts"] >= 1
    assert counters["resilience.worker_deaths"] == 1
    assert np.array_equal(fact.r_dense(), clean_r)


def test_batched_workers_fail_over_bit_identically(matrix, optimizer):
    """Batched-update workers fail over too: a non-main worker killed at
    panel 1 leaves R bit-identical to the clean batched run."""
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    victim = next(d for d in dist.participants if d != dist.main_device)
    clean = MultiprocessRuntime(dist, batch_updates=True).factorize(matrix.copy(), B)
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR_BATCH", k=1, device=victim),
    ))
    metrics = MetricsRegistry()
    fact = MultiprocessRuntime(
        dist, batch_updates=True, retry_policy=POLICY, chaos=plan, metrics=metrics
    ).factorize(matrix.copy(), B)
    assert metrics.snapshot()["counters"]["resilience.worker_deaths"] == 1
    assert np.array_equal(fact.r_dense(), clean.r_dense())
