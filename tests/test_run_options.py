"""The shared runtime surface: one frozen ``RunOptions`` for all three
runtimes, ``chaos=`` taking a plan or an engine, bundle capture that
leaves the caller's options alone, and up-front input validation."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.cli import EXIT_CONFIG, exit_code_for
from repro.errors import ConfigError, ReproError
from repro.observability import MetricsRegistry, TelemetryBus
from repro.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import RunOptions, tiled_qr
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime

N = 64
B = 16

RUNTIMES = ["serial", "threaded", "multiprocess"]


@pytest.fixture(scope="module")
def dist(optimizer):
    return optimizer.plan(matrix_size=N, tile_size=B, num_devices=2)


def _make(name, dist, **options):
    if name == "serial":
        return SerialRuntime(**options)
    if name == "threaded":
        return ThreadedRuntime(2, **options)
    return MultiprocessRuntime(dist, **options)


class TestConstruction:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize(
        "keyword", ["progress", "chaos_plan", "no_such_option", "backend"]
    )
    def test_unknown_keyword_raises_type_error(self, runtime, keyword, dist):
        with pytest.raises(TypeError, match=keyword):
            _make(runtime, dist, **{keyword: None})

    def test_run_options_are_frozen(self):
        opts = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.bus = TelemetryBus()

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_runtime_holds_one_options_object(self, runtime, dist):
        rt = _make(runtime, dist, elimination="TT", batch_updates=True)
        assert isinstance(rt.options, RunOptions)
        assert rt.options.elimination == "binary"
        assert rt.options.batch_updates


class TestChaosTakesAPlan:
    """``chaos=FaultPlan`` masks a seeded exception on every runtime."""

    PLAN = FaultPlan(
        specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="UNMQR", k=0, times=1),)
    )
    POLICY = RetryPolicy(max_attempts=3, backoff=0.0, jitter=0.0)

    @pytest.mark.parametrize("runtime", ["serial", "multiprocess"])
    def test_plan_fault_is_masked_bit_identically(self, runtime, dist):
        a = np.random.default_rng(7).standard_normal((N, N))
        clean = _make(runtime, dist).factorize(a.copy(), B).r_dense()
        metrics = MetricsRegistry()
        fact = _make(
            runtime, dist, chaos=self.PLAN, retry_policy=self.POLICY, metrics=metrics
        ).factorize(a.copy(), B)
        assert np.array_equal(fact.r_dense(), clean)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.faults_injected"] >= 1
        assert counters["resilience.retries"] >= 1


class TestBundleCapture:
    def test_failed_run_leaves_the_callers_bus_in_place(self, tmp_path):
        bus = TelemetryBus()
        out = tmp_path / "bundle.zip"
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="TSQRT", times=99),))
        rt = SerialRuntime(
            chaos=plan, retry_policy=RetryPolicy(max_attempts=1), bus=bus, bundle_out=out
        )
        try:
            with pytest.raises(ReproError):
                rt.factorize(np.random.default_rng(8).standard_normal((N, N)), B)
        finally:
            bus.close()
        assert out.is_file()
        assert rt.options.bus is bus


class TestThreadedStress:
    """More workers than cores over the shared task-graph state, with a
    tiny interpreter switch interval: a lost completion would hang the
    run or drop a factor from the log."""

    @pytest.mark.parametrize("batch_updates", [False, True])
    def test_oversubscribed_pool_matches_serial(self, batch_updates):
        a = np.random.default_rng(11).standard_normal((96, 96))
        expected = SerialRuntime(batch_updates=batch_updates).factorize(a.copy(), B)
        outcome = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rt = ThreadedRuntime(8, batch_updates=batch_updates)
            runner = threading.Thread(
                target=lambda: outcome.update(fact=rt.factorize(a.copy(), B)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        fact = outcome["fact"]
        assert np.array_equal(fact.r_dense(), expected.r_dense())
        assert len(fact.log) == len(expected.log)


class TestInputValidation:
    """Non-finite, complex, empty or non-numeric dense input fails before
    any tiling."""

    @staticmethod
    def _bad(kind):
        a = np.random.default_rng(9).standard_normal((N, N))
        if kind == "nan":
            a[3, 5] = np.nan
        elif kind == "inf":
            a[10, 2] = -np.inf
        elif kind == "complex":
            a = a + 1j * a
        elif kind == "empty-0x0":
            a = np.zeros((0, 0))
        elif kind == "empty-5x0":
            a = np.zeros((5, 0))
        elif kind == "str":
            a = a.astype(str)
        else:
            a = a.astype(object)
        return a

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize(
        "kind", ["nan", "inf", "complex", "empty-0x0", "empty-5x0", "str", "object"]
    )
    def test_bad_input_raises_config_error(self, runtime, kind, dist):
        with pytest.raises(ConfigError) as info:
            _make(runtime, dist).factorize(self._bad(kind), B)
        assert exit_code_for(info.value) == EXIT_CONFIG

    def test_tiled_qr_rejects_nan(self):
        with pytest.raises(ConfigError, match="NaN or Inf"):
            tiled_qr(self._bad("nan"))

    def test_tiled_qr_rejects_empty_and_non_numeric(self):
        with pytest.raises(ConfigError, match="non-empty"):
            tiled_qr(self._bad("empty-5x0"))
        with pytest.raises(ConfigError, match="numeric"):
            tiled_qr(self._bad("str"))
