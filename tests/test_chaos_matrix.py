"""End-to-end chaos matrix: every runtime survives every fault kind.

Each case runs a full factorization under a seeded fault plan and
checks (a) the result is still numerically correct (residual <= 1e-10)
and (b) where the fault is masked by a retry — exception, hang,
corruption caught by the health sentinels — the result is *bit-identical*
to the fault-free run, because a retry restores the task's written tiles
before replaying.
"""

import numpy as np
import pytest

from repro.observability import MetricsRegistry, Tracer
from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import tiled_qr
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.runtime.multiprocess import MultiprocessRuntime

N = 96
B = 16

#: fault kind -> (spec fields, needs health sentinels to be detected)
FAULTS = {
    "exception": (dict(kind=FaultKind.EXCEPTION, task_kind="TSQRT", k=1, times=2), False),
    "delay": (dict(kind=FaultKind.DELAY, task_kind="UNMQR", k=0, times=2, seconds=0.02), False),
    "hang": (dict(kind=FaultKind.HANG, task_kind="GEQRT", k=2, times=1, seconds=0.15), False),
    "corrupt_nan": (dict(kind=FaultKind.CORRUPT_NAN, task_kind="TSMQR", k=0, row=2, times=1), True),
    "corrupt_inf": (dict(kind=FaultKind.CORRUPT_INF, task_kind="GEQRT", k=1, times=1), True),
}


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(4242).standard_normal((N, N))


@pytest.fixture(scope="module")
def clean_r(matrix):
    return tiled_qr(matrix, B).r_dense()


def _policy(name):
    # Hangs need a deadline to be detected; everything else retries flat.
    deadline = 0.05 if name == "hang" else None
    return RetryPolicy(max_attempts=3, backoff=0.0, jitter=0.0, deadline=deadline)


def _check(fact, matrix, clean_r, name, masked):
    assert fact.reconstruction_error(matrix) <= 1e-10
    if masked:
        assert np.array_equal(fact.r_dense(), clean_r), (
            f"retry-masked {name} fault must leave R bit-identical"
        )


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_serial_survives(name, matrix, clean_r):
    spec, needs_health = FAULTS[name]
    plan = FaultPlan(specs=(FaultSpec(**spec),))
    metrics = MetricsRegistry()
    fact = SerialRuntime(
        retry_policy=_policy(name),
        chaos=ChaosEngine(plan, metrics=metrics),
        health_checks=needs_health,
        metrics=metrics,
    ).factorize(matrix.copy(), B)
    counters = metrics.snapshot()["counters"]
    assert counters["resilience.faults_injected"] == spec["times"]
    # A delay perturbs timing only; every other kind forces retries.
    masked = name != "delay"
    if masked:
        assert counters["resilience.retries"] >= 1
    _check(fact, matrix, clean_r, name, masked=True)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_threaded_survives(name, matrix, clean_r):
    spec, needs_health = FAULTS[name]
    plan = FaultPlan(specs=(FaultSpec(**spec),))
    metrics = MetricsRegistry()
    fact = ThreadedRuntime(
        num_workers=4,
        retry_policy=_policy(name),
        chaos=ChaosEngine(plan, metrics=metrics),
        health_checks=needs_health,
        metrics=metrics,
    ).factorize(matrix.copy(), B)
    assert metrics.snapshot()["counters"]["resilience.faults_injected"] == spec["times"]
    _check(fact, matrix, clean_r, name, masked=True)


@pytest.mark.parametrize(
    "name", ["exception", "hang", "corrupt_nan", "corrupt_inf", "kill_worker"]
)
def test_multiprocess_survives(name, matrix, clean_r, optimizer):
    dist = optimizer.plan(matrix_size=N, num_devices=3)
    if name == "kill_worker":
        victim = next(d for d in dist.participants if d != dist.main_device)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR", k=1, device=victim),
        ))
        needs_health = False
    else:
        spec, needs_health = FAULTS[name]
        plan = FaultPlan(specs=(FaultSpec(**spec),))
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    fact = MultiprocessRuntime(
        dist,
        tracer=tracer,
        retry_policy=_policy(name),
        chaos=plan,
        health_checks=needs_health,
        metrics=metrics,
    ).factorize(matrix.copy(), B)
    counters = metrics.snapshot()["counters"]
    if name == "kill_worker":
        assert counters["resilience.worker_deaths"] == 1
        assert counters["resilience.failovers"] >= 1
        assert any(r.kind == "failover" for r in tracer.annotation_records())
    else:
        assert counters["resilience.faults_injected"] >= 1
        assert counters["resilience.retries"] >= 1
    if name == "hang":
        # Workers enforce the per-kernel deadline themselves.
        assert counters["resilience.timeouts"] >= 1
    # Failover replays per-tile kernels against pristine column copies,
    # so even the worker-kill path reproduces R bit-for-bit.
    _check(fact, matrix, clean_r, name, masked=True)


def test_batched_updates_chaos_serial(matrix):
    """The coarsened-update DAG goes through the same envelope: a batch
    task's written tiles snapshot/restore covers the whole row panel."""
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.EXCEPTION, task_kind="TSMQR_BATCH", k=0, times=1),
        FaultSpec(FaultKind.CORRUPT_NAN, task_kind="UNMQR_BATCH", k=1, times=1),
    ))
    clean = SerialRuntime(batch_updates=True).factorize(matrix.copy(), B)
    fact = SerialRuntime(
        batch_updates=True,
        retry_policy=RetryPolicy(backoff=0.0, jitter=0.0),
        chaos=ChaosEngine(plan),
        health_checks=True,
    ).factorize(matrix.copy(), B)
    assert np.array_equal(fact.r_dense(), clean.r_dense())
