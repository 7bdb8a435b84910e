"""Mid-run checkpoint / resume tests (format-2 partial snapshots).

The acceptance property: a run interrupted after a checkpoint, resumed
from that snapshot, produces the same R the uninterrupted run would have
(bit-identical for the deterministic per-tile path).  Plus the metadata
validation both load paths must do before touching any numbers.
"""

from collections import Counter

import numpy as np
import pytest

from repro.dag import build_dag
from repro.observability import MetricsRegistry
from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, NO_RETRY, RetryPolicy
from repro.errors import RetryExhaustedError, SimulationError
from repro.runtime import tiled_qr
from repro.runtime.checkpoint import (
    CheckpointError,
    load_factorization,
    load_partial_factorization,
    resume_factorization,
    save_factorization,
)
import repro.runtime.checkpoint as checkpoint
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import RunOptions, SerialRuntime, TaskGraphRun
from repro.runtime.threaded import ThreadedRuntime, split_batch

N = 96
B = 16


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(31337).standard_normal((N, N))


@pytest.fixture(scope="module")
def clean_r(matrix):
    return tiled_qr(matrix, B).r_dense()


@pytest.fixture(scope="module")
def clean_batched_r(matrix):
    return SerialRuntime(batch_updates=True).factorize(matrix.copy(), B).r_dense()


@pytest.fixture
def snapshots(monkeypatch, tmp_path):
    """The paths of every snapshot a run writes, each kept apart."""
    save, paths = checkpoint.save_partial_factorization, []

    def keep(_path, *args, **kwargs):
        paths.append(tmp_path / f"snap{len(paths)}.npz")
        save(paths[-1], *args, **kwargs)

    monkeypatch.setattr(checkpoint, "save_partial_factorization", keep)
    return paths


def _interrupt_serial(matrix, path, **runtime_kw):
    """Run serially with checkpoints until an unrecoverable injected
    fault aborts the run mid-DAG; returns the surviving snapshot path."""
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=3, times=99),
    ))
    runtime = SerialRuntime(
        chaos=ChaosEngine(plan), retry_policy=NO_RETRY,
        checkpoint_every=10, checkpoint_path=path, **runtime_kw,
    )
    with pytest.raises(RetryExhaustedError):
        runtime.factorize(matrix.copy(), B)
    assert path.exists(), "a checkpoint must have been written before the crash"
    return path


class TestSerialResume:
    def test_interrupted_run_resumes_to_identical_r(self, matrix, clean_r, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        assert 0 < len(state.completed) < len(clean_r)  # genuinely mid-run
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean_r)
        assert np.allclose(fact.r_dense(), clean_r, atol=1e-12)
        assert fact.reconstruction_error(matrix) <= 1e-10

    def test_q_survives_the_resume(self, matrix, tmp_path):
        """The reflector log crosses the snapshot too: Q R must still
        reconstruct A after a resume, not just R match."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        fact = resume_factorization(path)
        assert np.allclose(fact.apply_q(fact.r_dense()), matrix, atol=1e-10)

    def test_checkpoint_counter_and_cadence(self, matrix, tmp_path):
        metrics = MetricsRegistry()
        path = tmp_path / "snap.npz"
        SerialRuntime(
            checkpoint_every=25, checkpoint_path=path, metrics=metrics
        ).factorize(matrix.copy(), B)
        total = 91  # 6x6 TS grid task count
        assert metrics.snapshot()["counters"]["resilience.checkpoints"] == total // 25

    def test_resume_batched_run(self, matrix, tmp_path):
        path = tmp_path / "snap.npz"
        clean = SerialRuntime(batch_updates=True).factorize(matrix.copy(), B)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=3, times=99),
        ))
        runtime = SerialRuntime(
            batch_updates=True, chaos=ChaosEngine(plan), retry_policy=NO_RETRY,
            checkpoint_every=5, checkpoint_path=path,
        )
        with pytest.raises(RetryExhaustedError):
            runtime.factorize(matrix.copy(), B)
        state = load_partial_factorization(path)
        assert state.batch_updates
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean.r_dense())


class TestThreadedResume:
    def test_threaded_checkpoint_resumed_on_serial(self, matrix, clean_r, tmp_path):
        """A stop-the-world snapshot from the threaded runtime is a
        quiescent frontier any runtime can finish."""
        path = tmp_path / "snap.npz"
        ThreadedRuntime(
            num_workers=4, checkpoint_every=20, checkpoint_path=path
        ).factorize(matrix.copy(), B)
        state = load_partial_factorization(path)
        assert len(state.completed) >= 20
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean_r)

    def test_threaded_resume_of_serial_snapshot(self, matrix, clean_r, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        fact = resume_factorization(path, runtime=ThreadedRuntime(num_workers=4))
        assert np.array_equal(fact.r_dense(), clean_r)

    def test_threaded_batched_snapshots_hold_no_half_batch(
        self, matrix, clean_batched_r, tmp_path, snapshots
    ):
        """Batches split into one chunk per worker: every snapshot waits
        for the begun batches, so each resumes to the clean batched R."""
        fact = ThreadedRuntime(
            num_workers=4, batch_updates=True, checkpoint_every=2,
            checkpoint_path=tmp_path / "th.npz",
        ).factorize(matrix.copy(), B)
        assert np.array_equal(fact.r_dense(), clean_batched_r)
        assert len(snapshots) >= 3
        for path in snapshots:
            assert np.array_equal(resume_factorization(path).r_dense(), clean_batched_r), path.name


class TestMultiprocessResume:
    def test_mp_checkpoint_resumes_everywhere(self, matrix, clean_r, tmp_path, optimizer):
        """A multiprocess snapshot is a quiescent frontier, as a threaded
        one is: the serial, threaded, and multiprocess runtimes can all
        finish it."""
        dist = optimizer.plan(matrix_size=N, num_devices=3)
        path = tmp_path / "mp.npz"
        fact = MultiprocessRuntime(
            dist, checkpoint_every=20, checkpoint_path=path
        ).factorize(matrix.copy(), B)
        assert np.array_equal(fact.r_dense(), clean_r)

        state = load_partial_factorization(path)
        assert len(state.completed) >= 20

        serial = resume_factorization(path)
        assert np.array_equal(serial.r_dense(), clean_r)
        threaded = resume_factorization(path, runtime=ThreadedRuntime(num_workers=4))
        assert np.array_equal(threaded.r_dense(), clean_r)
        mp = MultiprocessRuntime(dist).factorize(None, resume=state)
        assert np.array_equal(mp.r_dense(), clean_r)

    def test_mp_batched_snapshots_hold_no_half_batch(
        self, matrix, clean_batched_r, tmp_path, optimizer, snapshots
    ):
        """Batched updates cut between column owners: every snapshot is
        taken with no batch partly applied, so each resumes to the clean
        batched R on serial, and one mid-run snapshot on multiprocess."""
        dist = optimizer.plan(matrix_size=N, num_devices=3)
        assert len(set(dist.guide_array)) > 1  # batches are cut between owners
        fact = MultiprocessRuntime(
            dist, batch_updates=True, checkpoint_every=3, checkpoint_path=tmp_path / "mp.npz"
        ).factorize(matrix.copy(), B)
        assert np.array_equal(fact.r_dense(), clean_batched_r)
        assert len(snapshots) >= 3
        for path in snapshots:
            assert np.array_equal(resume_factorization(path).r_dense(), clean_batched_r), path.name
        state = load_partial_factorization(snapshots[len(snapshots) // 2])
        mp = MultiprocessRuntime(dist, batch_updates=True).factorize(None, resume=state)
        assert np.array_equal(mp.r_dense(), clean_batched_r)

    def test_mp_resumes_mid_panel_serial_snapshot(self, matrix, clean_r, tmp_path, optimizer):
        """A task-granular serial snapshot, cut mid-panel, finishes on the
        multiprocess runtime with an R bit-identical to the clean run."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        per_panel = Counter(t.k for t in build_dag(N // B, N // B, "TS").tasks)
        done = Counter(t.k for t in state.completed)
        assert any(0 < done[k] < n for k, n in per_panel.items())  # cut mid-panel
        dist = optimizer.plan(matrix_size=N, num_devices=2)
        fact = MultiprocessRuntime(dist).factorize(None, resume=state)
        assert np.array_equal(fact.r_dense(), clean_r)
        assert fact.reconstruction_error(matrix) <= 1e-10


class TestBatchFrontier:
    def test_checkpoint_waits_for_a_begun_batch(self, matrix, clean_batched_r, tmp_path):
        """With one chunk of a batch done and its sibling unpopped, the
        run refuses to snapshot; :meth:`pop_begun` hands out the sibling,
        after which the snapshot resumes to the clean R."""
        path = tmp_path / "snap.npz"
        opts = RunOptions(batch_updates=True, checkpoint_every=1, checkpoint_path=path)
        run = TaskGraphRun(matrix.copy(), B, None, opts, split=lambda t: split_batch(t, 2))
        ws, tasks = run.workspace(), run.dag.tasks

        def execute(ready):
            run.complete(ready[0], run.execute(ready[1], ws, "test"))

        while (chunk := run.pop())[1] is tasks[chunk[0]]:  # until a chunk pops
            execute(chunk)
        execute(chunk)
        with pytest.raises(SimulationError, match="partly run"):
            run.checkpoint("test")
        sibling = run.pop_begun()
        assert sibling[0] == chunk[0] and sibling[1] != chunk[1]
        assert run.pop_begun() is None
        execute(sibling)
        run.checkpoint("test")
        assert np.array_equal(resume_factorization(path).r_dense(), clean_batched_r)


class TestValidation:
    """Satellite: CheckpointError on metadata that does not match."""

    def test_completed_load_rejects_wrong_shape(self, matrix, tmp_path):
        path = tmp_path / "full.npz"
        save_factorization(tiled_qr(matrix, B), path)
        with pytest.raises(CheckpointError, match=r"96x96.*target is 128x128"):
            load_factorization(path, expect_shape=(128, 128))
        with pytest.raises(CheckpointError, match=r"tile size 16.*expects 32"):
            load_factorization(path, expect_tile_size=32)
        # Matching expectations load fine.
        fact = load_factorization(path, expect_shape=(N, N), expect_tile_size=B)
        assert np.allclose(fact.r_dense(), tiled_qr(matrix, B).r_dense())

    def test_format_cross_loading_is_rejected(self, matrix, tmp_path):
        full = tmp_path / "full.npz"
        save_factorization(tiled_qr(matrix, B), full)
        with pytest.raises(CheckpointError, match="completed factorization"):
            load_partial_factorization(full)

        partial = _interrupt_serial(matrix, tmp_path / "snap.npz")
        with pytest.raises(CheckpointError, match="resume_factorization"):
            load_factorization(partial)

    def test_missing_and_garbage_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_partial_factorization(tmp_path / "nope.npz")
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_partial_factorization(junk)

    def test_resume_config_mismatch(self, matrix, tmp_path):
        """Resuming a TS snapshot under a TT (or batched) DAG would
        silently replay applied work — must be rejected up front."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        with pytest.raises(CheckpointError, match="elimination"):
            resume_factorization(path, runtime=SerialRuntime(elimination="TT"))
        with pytest.raises(CheckpointError, match="batch_updates"):
            resume_factorization(path, runtime=SerialRuntime(batch_updates=True))

    def test_resume_grid_mismatch(self, matrix, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        other = np.random.default_rng(0).standard_normal((128, 128))
        with pytest.raises(CheckpointError, match="grid"):
            SerialRuntime().factorize(other, 16, resume=state)
