"""One BLAS thread per kernel worker: the serial and threaded runtimes pin
the process's OpenBLAS count for the run and restore it, and a
multiprocess worker pins its own process once.  With every kernel on one
BLAS thread, R is bit-identical across the three runtimes."""

import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.kernels.backends import KERNEL_NAMES, get_backend
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.runtime import blas
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime
from tests.conftest import kernel_table

pytestmark = pytest.mark.skipif(
    blas.get_num_threads() is None, reason="NumPy's BLAS thread count is not controllable"
)

B = 32
#: The caller's count during these tests; anything but 1, so a missing
#: pin or a missing restore is visible.
CALLER = 3


@pytest.fixture(autouse=True)
def caller_count():
    before = blas.get_num_threads()
    blas.set_num_threads(CALLER)
    yield
    blas.set_num_threads(before)


def _matrix(n=128, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


def _probe(on_call):
    """The table's kernels, calling ``on_call(kernel_name)`` before each."""
    ref = get_backend("reference")

    def wrap(kernel):
        fn = getattr(ref, kernel)

        def probed(*args, **kwargs):
            on_call(kernel)
            return fn(*args, **kwargs)

        return probed

    return kernel_table(**{k: wrap(k) for k in KERNEL_NAMES})


def _recorder(seen):
    return _probe(lambda kernel: seen.append(blas.get_num_threads()))


class TestThreadedScope:
    def test_count_restored_after_success(self):
        ThreadedRuntime(2).factorize(_matrix(), B)
        assert blas.get_num_threads() == CALLER

    def test_count_restored_after_failure(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="TSQRT", times=99),))
        with pytest.raises(Exception):
            ThreadedRuntime(2, chaos=plan).factorize(_matrix(), B)
        assert blas.get_num_threads() == CALLER

    def test_kernels_in_workers_see_one_thread(self):
        seen = []
        with _recorder(seen):
            ThreadedRuntime(2).factorize(_matrix(), B)
        assert seen and set(seen) == {1}

    def test_serial_kernels_see_one_thread(self):
        seen = []
        with _recorder(seen):
            SerialRuntime().factorize(_matrix(), B)
        assert seen and set(seen) == {1}
        assert blas.get_num_threads() == CALLER

    def test_overlapping_runs_restore_the_original_count(self):
        # The first GEQRT of each run waits for the other run's first
        # GEQRT, so the two pools are alive at the same time.
        meet = threading.Barrier(2, timeout=30)
        lock, calls = threading.Lock(), [0]
        seen, results, errors = [], {}, []

        def record_and_meet(kernel):
            seen.append(blas.get_num_threads())
            if kernel != "geqrt":
                return
            with lock:
                calls[0] += 1
                first_two = calls[0] <= 2
            if first_two:
                meet.wait()

        def run(key):
            try:
                results[key] = ThreadedRuntime(2).factorize(_matrix(), B)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        with _probe(record_and_meet):
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        assert not errors and len(results) == 2
        assert set(seen) == {1}
        assert blas.get_num_threads() == CALLER
        assert np.array_equal(results[0].r_dense(), results[1].r_dense())

    def test_missing_symbols_are_a_no_op(self, monkeypatch):
        # Without the loader the factorization kernels fall back to their
        # Python loops too, so the pinned run uses those loops as well.
        a = _matrix(256, seed=4)
        syms = blas._symbols()
        monkeypatch.setattr(blas, "_symbols", lambda: syms._replace(lapack={}))
        pinned = ThreadedRuntime(2).factorize(a.copy(), 64).r_dense()
        monkeypatch.setattr(blas, "_symbols", lambda: None)
        assert blas.get_num_threads() is None
        with blas.blas_threads(1):
            pass
        unpinned = ThreadedRuntime(2).factorize(a.copy(), 64).r_dense()
        assert np.array_equal(unpinned, pinned)


def test_setting_the_current_count_skips_the_setter(monkeypatch):
    # In a forked child OpenBLAS's setter restarts its pool, whose idle
    # threads spin; a worker that inherited the pin must not call it.
    calls = []
    monkeypatch.setattr(blas, "_symbols", lambda: (lambda: 1, calls.append))
    blas.set_num_threads(1)
    assert calls == []
    blas.set_num_threads(2)
    assert calls == [2]


@pytest.mark.parametrize("n, b", [(256, 64), (1024, 128)])
def test_r_is_bit_identical_across_runtimes(optimizer, n, b):
    # At b >= 64 ?tpqrt's T depends on the BLAS thread count, so this
    # fails unless every runtime runs its kernels on one BLAS thread.
    a = _matrix(n, seed=n)
    plan = optimizer.plan(matrix_size=n, tile_size=b, num_devices=2)
    serial = SerialRuntime().factorize(a.copy(), b).r_dense()
    threaded = ThreadedRuntime(2).factorize(a.copy(), b).r_dense()
    multi = MultiprocessRuntime(plan).factorize(a.copy(), b).r_dense()
    assert np.array_equal(serial, threaded)
    assert np.array_equal(serial, multi)


class TestCallerCountRestored:
    """The entry points beyond ``factorize`` on the in-process runtimes
    leave the caller's BLAS thread count as they found it."""

    def test_lstsq(self):
        from repro.linalg import lstsq

        rng = np.random.default_rng(2)
        lstsq(rng.standard_normal((256, 64)), rng.standard_normal((256, 3)), B)
        assert blas.get_num_threads() == CALLER

    def test_apply_qt_and_apply_q(self):
        fact = SerialRuntime().factorize(_matrix(), B)
        x = np.random.default_rng(3).standard_normal((128, 2))
        y = fact.apply_qt(x)
        assert blas.get_num_threads() == CALLER
        np.testing.assert_allclose(fact.apply_q(y), x, atol=1e-12)
        assert blas.get_num_threads() == CALLER

    def test_multiprocess_factorize(self, optimizer):
        plan = optimizer.plan(matrix_size=128, tile_size=B, num_devices=2)
        MultiprocessRuntime(plan).factorize(_matrix(), B)
        assert blas.get_num_threads() == CALLER


class TestMultiprocessWorker:
    @pytest.fixture
    def probe(self):
        # Forked workers inherit the table; the probe fails any kernel
        # that sees more than one thread.
        def check(kernel):
            if (count := blas.get_num_threads()) != 1:
                raise RuntimeError(f"{kernel} ran with {count} BLAS threads")

        with _probe(check):
            yield

    def test_worker_kernels_see_one_thread(self, probe, optimizer):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("the probe table reaches workers only through fork")
        plan = optimizer.plan(matrix_size=128, tile_size=B, num_devices=2)
        a = _matrix()
        fact = MultiprocessRuntime(plan).factorize(a.copy(), B)
        expected = SerialRuntime().factorize(a.copy(), B)
        assert np.array_equal(fact.r_dense(), expected.r_dense())
        assert blas.get_num_threads() == CALLER
