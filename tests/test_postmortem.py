"""Postmortem forensics: flight recorder, failure bundles, root-cause.

The acceptance matrix from the observability work: for seeded chaos
faults of each class — worker kill, hang, NaN corruption, exception
with retries exhausted — every runtime that can hit the failure must
produce a failure bundle whose postmortem classification names the
injected fault class and cites the triggering FaultSpec.  Plus the
plumbing underneath: recorder bounds and in-flight tracking, atomic
bundle write/load, error classification, and bundle capture racing a
multiprocess failover.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.dag.tasks import Task, TaskKind
from repro.errors import (
    ConfigError,
    FaultInjectionError,
    NumericalHealthError,
    ObservabilityError,
    RetryExhaustedError,
    ShapeError,
    TaskTimeoutError,
    WorkerFailoverError,
)
from repro.observability import MetricsRegistry, TelemetryBus, read_live_events
from repro.observability.postmortem import (
    BUNDLE_SCHEMA_VERSION,
    BundleCapture,
    FailureBundle,
    FlightRecorder,
    analyze_bundle,
    classify_error,
    error_chain,
    write_failure_bundle,
)
from repro.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime

N = 64
B = 16
FAST_RETRY = RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(4242).standard_normal((N, N))


def _chained(outer_cls, inner):
    try:
        raise inner
    except type(inner) as exc:
        try:
            raise outer_cls("wrapped") from exc
        except outer_cls as out:
            return out


def _serial_chaos(plan, bundle, **kw):
    from repro.resilience import ChaosEngine

    kw.setdefault("retry_policy", FAST_RETRY)
    return SerialRuntime(chaos=ChaosEngine(plan), bundle_out=bundle, **kw)


# ---------------------------------------------------------------------------
# FlightRecorder


class TestFlightRecorder:
    def _task(self, k=0, row=0):
        return Task(TaskKind.GEQRT, k, row, row, k)

    def test_capacity_bounds_tail_but_not_inflight(self):
        bus = TelemetryBus()
        rec = FlightRecorder(capacity=4).attach(bus)
        for i in range(10):
            bus.task_start(self._task(k=0, row=i), "dev0", t=float(i))
        bus.drain()
        assert len(rec) == 4  # tail is a ring
        assert rec.events_seen == 10
        assert len(rec.inflight()) == 10  # in-flight table is exact
        bus.close()

    def test_finish_clears_inflight_and_folds_devices(self):
        bus = TelemetryBus()
        rec = FlightRecorder().attach(bus)
        t = self._task()
        bus.task_start(t, "dev0", t=1.0)
        bus.task_finish(t, "dev0", start=1.0, end=2.0)
        bus.publish("retry", "dev0", {"task": "T", "attempt": 2})
        bus.publish("failover", "dev1", {"died": True, "panel": 0})
        bus.drain()
        assert rec.inflight() == []
        devs = rec.device_progress()
        assert devs["dev0"]["started"] == 1 and devs["dev0"]["finished"] == 1
        assert devs["dev0"]["retries"] == 1
        assert devs["dev1"]["dead"] is True
        bus.close()

    def test_inflight_ordered_by_start_time(self):
        bus = TelemetryBus()
        rec = FlightRecorder().attach(bus)
        bus.task_start(self._task(k=1, row=3), "b", t=5.0)
        bus.task_start(self._task(k=0, row=0), "a", t=1.0)
        bus.drain()
        sines = [e["since"] for e in rec.inflight()]
        assert sines == sorted(sines)
        bus.close()

    def test_detach_stops_recording(self):
        bus = TelemetryBus()
        rec = FlightRecorder().attach(bus)
        bus.publish("heartbeat", "dev0")
        bus.drain()
        rec.detach()
        bus.publish("heartbeat", "dev0")
        bus.drain()
        assert rec.events_seen == 1
        bus.close()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# classify_error


class TestClassifyError:
    def test_classes(self):
        assert classify_error(WorkerFailoverError("x")) == "worker_death"
        assert classify_error(NumericalHealthError("x")) == "numerical"
        assert classify_error(TaskTimeoutError("x")) == "timeout"
        assert classify_error(FaultInjectionError("x")) == "injected-fault"
        assert classify_error(ShapeError("x")) == "config"
        assert classify_error(ConfigError("x")) == "config"
        assert classify_error(KeyboardInterrupt()) == "interrupted"
        assert classify_error(RuntimeError("x")) == "unknown"
        assert classify_error(None) == "unknown"

    def test_retry_exhaustion_classifies_as_its_cause(self):
        exc = _chained(RetryExhaustedError, NumericalHealthError("NaN"))
        assert classify_error(exc) == "numerical"
        exc = _chained(RetryExhaustedError, TaskTimeoutError("slow"))
        assert classify_error(exc) == "timeout"

    def test_checkpoint_error_is_config_by_name(self):
        from repro.runtime.checkpoint import CheckpointError

        assert classify_error(CheckpointError("bad snapshot")) == "config"

    def test_error_chain_walks_causes(self):
        exc = _chained(RetryExhaustedError, FaultInjectionError("boom"))
        chain = error_chain(exc)
        assert [type(e).__name__ for e in chain] == [
            "RetryExhaustedError",
            "FaultInjectionError",
        ]


# ---------------------------------------------------------------------------
# Bundle write / load


class TestBundleRoundTrip:
    def test_round_trip(self, tmp_path):
        bus = TelemetryBus()
        rec = FlightRecorder().attach(bus)
        task = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        bus.task_start(task, "serial", t=1.0)
        bus.publish("retry", "serial", {"task": task.label(), "attempt": 2})
        bus.drain()
        metrics = MetricsRegistry()
        metrics.counter("resilience.retries").inc()
        plan = FaultPlan([FaultSpec(FaultKind.EXCEPTION, times=3)], seed=7)
        path = write_failure_bundle(
            tmp_path / "b.zip",
            error=_chained(RetryExhaustedError, FaultInjectionError("boom")),
            recorder=rec,
            metrics=metrics,
            fault_plan=plan,
            meta={"runtime": "serial", "n": 64},
        )
        bus.close()

        b = FailureBundle.load(path)
        assert b.manifest["schema"] == BUNDLE_SCHEMA_VERSION
        assert b.manifest["failure_class"] == "injected-fault"
        assert b.manifest["run"]["runtime"] == "serial"
        assert [e["type"] for e in b.manifest["error"]["chain"]] == [
            "RetryExhaustedError",
            "FaultInjectionError",
        ]
        assert b.manifest["provenance"]["version"]  # satellite: version recorded
        assert [e.type for e in b.events] == ["task.start", "retry"]
        assert len(b.inflight) == 1 and b.inflight[0]["device"] == "serial"
        assert b.metrics["counters"]["resilience.retries"] == 1
        assert b.fault_plan is not None and b.fault_plan.seed == 7
        # no temp droppings from the atomic write
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_bundle_events_readable_as_live_stream(self, tmp_path):
        """events.jsonl inside a bundle is live schema v1: the standard
        reader parses it after extraction."""
        bus = TelemetryBus()
        rec = FlightRecorder().attach(bus)
        bus.publish("run.start", "serial", {"total_tasks": 3})
        bus.drain()
        path = write_failure_bundle(tmp_path / "b.zip", recorder=rec)
        bus.close()
        with zipfile.ZipFile(path) as zf:
            (tmp_path / "events.jsonl").write_bytes(zf.read("events.jsonl"))
        meta, events = read_live_events(tmp_path / "events.jsonl")
        assert meta["schema"] == 1
        assert [e.type for e in events] == ["run.start"]

    def test_load_rejects_junk(self, tmp_path):
        missing = tmp_path / "nope.zip"
        with pytest.raises(ObservabilityError, match="no failure bundle"):
            FailureBundle.load(missing)
        notzip = tmp_path / "junk.zip"
        notzip.write_text("not a zip")
        with pytest.raises(ObservabilityError, match="unreadable"):
            FailureBundle.load(notzip)
        with zipfile.ZipFile(tmp_path / "nomanifest.zip", "w") as zf:
            zf.writestr("other.json", "{}")
        with pytest.raises(ObservabilityError, match="manifest"):
            FailureBundle.load(tmp_path / "nomanifest.zip")

    def test_capture_is_idempotent_and_selective(self, tmp_path):
        cap = BundleCapture(tmp_path / "b.zip")
        assert cap.capture(AttributeError("bug")) is None  # programming error
        first = cap.capture(FaultInjectionError("boom"))
        assert first is not None and first.is_file()
        mtime = first.stat().st_mtime_ns
        assert cap.capture(FaultInjectionError("again")) == first
        assert first.stat().st_mtime_ns == mtime  # first capture won
        cap.close()


# ---------------------------------------------------------------------------
# Acceptance matrix: every injected fault class classifies correctly


class TestFaultClassMatrix:
    def _analyze(self, bundle_path):
        assert bundle_path.is_file(), "terminal failure must produce a bundle"
        return analyze_bundle(bundle_path)

    def test_serial_exception_exhausted(self, matrix, tmp_path):
        out = tmp_path / "b.zip"
        plan = FaultPlan([FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=99)])
        with pytest.raises(RetryExhaustedError):
            _serial_chaos(plan, out).factorize(matrix.copy(), B)
        rep = self._analyze(out)
        assert rep.failure_class == "injected-fault"
        assert rep.injected and rep.fault_spec["kind"] == "exception"

    def test_serial_hang_deadline(self, matrix, tmp_path):
        out = tmp_path / "b.zip"
        plan = FaultPlan(
            [FaultSpec(FaultKind.HANG, task_kind="GEQRT", times=99, seconds=0.05)]
        )
        policy = RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0, deadline=0.01)
        with pytest.raises(RetryExhaustedError):
            _serial_chaos(plan, out, retry_policy=policy).factorize(matrix.copy(), B)
        rep = self._analyze(out)
        assert rep.failure_class == "hang"  # timeout upgraded: HANG spec seeded it
        assert rep.injected and rep.fault_spec["kind"] == "hang"

    def test_threaded_nan_corruption(self, matrix, tmp_path):
        from repro.resilience import ChaosEngine

        out = tmp_path / "b.zip"
        plan = FaultPlan(
            [FaultSpec(FaultKind.CORRUPT_NAN, task_kind="GEQRT", times=99)]
        )
        rt = ThreadedRuntime(
            num_workers=2,
            retry_policy=FAST_RETRY,
            chaos=ChaosEngine(plan),
            health_checks=True,
            bundle_out=out,
        )
        with pytest.raises(RetryExhaustedError):
            rt.factorize(matrix.copy(), B)
        rep = self._analyze(out)
        assert rep.failure_class == "numerical"
        assert rep.injected and rep.fault_spec["kind"] == "corrupt_nan"

    def test_multiprocess_worker_death(self, matrix, tmp_path, optimizer):
        from repro.runtime.multiprocess import MultiprocessRuntime

        out = tmp_path / "b.zip"
        dist = optimizer.plan(matrix_size=N, num_devices=2)
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(FaultKind.KILL_WORKER, k=1, device=d)
                for d in dist.participants
            )
        )
        rt = MultiprocessRuntime(
            dist, retry_policy=FAST_RETRY, chaos=plan, bundle_out=out
        )
        with pytest.raises(WorkerFailoverError):
            rt.factorize(matrix.copy(), B)
        rep = self._analyze(out)
        assert rep.failure_class == "worker_death"
        assert rep.injected and rep.fault_spec["kind"] == "kill_worker"
        assert rep.summary.startswith("run died as worker_death")

    def test_clean_run_writes_no_bundle(self, matrix, tmp_path):
        out = tmp_path / "b.zip"
        fact = SerialRuntime(bundle_out=out).factorize(matrix.copy(), B)
        assert fact.reconstruction_error(matrix) <= 1e-10
        assert not out.exists()


# ---------------------------------------------------------------------------
# Bundle capture racing a multiprocess failover (satellite)


class TestCaptureRacesFailover:
    def test_bundle_written_and_consistent_mid_failover(
        self, matrix, tmp_path, optimizer
    ):
        """Kill every worker at staggered panels: capture fires while the
        manager is still re-homing columns from the first death.  The
        bundle must exist and be internally consistent anyway."""
        from repro.runtime.multiprocess import MultiprocessRuntime

        out = tmp_path / "b.zip"
        dist = optimizer.plan(matrix_size=96, num_devices=3)
        specs = [
            FaultSpec(FaultKind.KILL_WORKER, k=1 + i, device=d)
            for i, d in enumerate(dist.participants)
        ]
        rt = MultiprocessRuntime(
            dist,
            retry_policy=RetryPolicy(max_attempts=3, backoff=0.0, jitter=0.0),
            chaos=FaultPlan(specs=tuple(specs)),
            bundle_out=out,
        )
        a = np.random.default_rng(11).standard_normal((96, 96))
        with pytest.raises(WorkerFailoverError):
            rt.factorize(a, B)
        b = FailureBundle.load(out)  # loads => zip is complete, not torn
        assert b.manifest["failure_class"] == "worker_death"
        assert b.manifest["events"] == len(b.events)
        deaths = [e for e in b.events if e.type == "failover" and e.data.get("died")]
        assert deaths, "recorder must have seen at least one worker death"
        dead_devices = {
            name for name, st in b.progress["devices"].items() if st.get("dead")
        }
        assert dead_devices  # the fold agrees with the event tail
        assert set(e.device for e in deaths) <= dead_devices
        rep = analyze_bundle(b)
        assert rep.injected and rep.fault_spec["kind"] == "kill_worker"


# ---------------------------------------------------------------------------
# CLI


class TestPostmortemCli:
    def _bundle(self, tmp_path):
        out = tmp_path / "b.zip"
        plan = FaultPlan([FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=99)])
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        code = main(
            [
                "chaos", "64", "--plan", str(plan_path), "--tile-size", "16",
                "--max-attempts", "2", "--bundle-out", str(out),
            ]
        )
        return code, out

    def test_chaos_bundle_and_postmortem_text(self, tmp_path, capsys):
        code, out = self._bundle(tmp_path)
        assert code == 5  # infrastructure: injected fault
        assert out.is_file()
        capsys.readouterr()
        assert main(["postmortem", str(out)]) == 0
        text = capsys.readouterr().out
        assert "injected-fault" in text
        assert "FaultSpec" in text
        assert "timeline" in text

    def test_postmortem_json(self, tmp_path, capsys):
        _, out = self._bundle(tmp_path)
        capsys.readouterr()
        assert main(["postmortem", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failure_class"] == "injected-fault"
        assert doc["injected"] is True
        assert doc["fault_spec"]["kind"] == "exception"
        assert doc["narrative"]

    def test_postmortem_rejects_junk(self, tmp_path, capsys):
        assert main(["postmortem", str(tmp_path / "nope.zip")]) == 2
