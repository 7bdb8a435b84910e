"""Tests for the distributed-memory (multi-process) runtime."""

import multiprocessing
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from repro.dag import build_dag
from repro.errors import ShapeError
from repro.observability import Tracer
from repro.runtime import tiled_qr
from repro.runtime.multiprocess import MultiprocessRuntime


class TestMultiprocessRuntime:
    @pytest.mark.parametrize("num_devices", [1, 2, 4])
    def test_matches_serial(self, rng, optimizer, num_devices):
        a = rng.standard_normal((96, 96))
        plan = optimizer.plan(matrix_size=96, num_devices=num_devices)
        f = MultiprocessRuntime(plan).factorize(a)
        f_ref = tiled_qr(a, 16)
        np.testing.assert_allclose(f.r_dense(), f_ref.r_dense(), atol=1e-13)

    def test_q_and_solve_from_gathered_factors(self, rng, optimizer):
        a = rng.standard_normal((80, 80)) + 6 * np.eye(80)
        plan = optimizer.plan(matrix_size=80, num_devices=3)
        f = MultiprocessRuntime(plan).factorize(a)
        assert f.reconstruction_error(a) < 1e-10
        x = rng.standard_normal(80)
        np.testing.assert_allclose(f.solve(a @ x), x, atol=1e-8)

    def test_padded_matrix(self, rng, optimizer):
        a = rng.standard_normal((70, 70))
        plan = optimizer.plan(matrix_size=70, num_devices=2)
        f = MultiprocessRuntime(plan).factorize(a)
        np.testing.assert_allclose(
            f.r_dense(), tiled_qr(a, 16).r_dense(), atol=1e-13
        )

    def test_no_main_plan_migrates_panels(self, rng, system):
        from repro.baselines import no_main_plan

        a = rng.standard_normal((96, 96))
        plan = no_main_plan(system, 6, 6, 16)
        f = MultiprocessRuntime(plan).factorize(a)
        np.testing.assert_allclose(
            f.r_dense(), tiled_qr(a, 16).r_dense(), atol=1e-13
        )

    def test_rejects_bad_shapes(self, optimizer, rng):
        plan = optimizer.plan(matrix_size=64, num_devices=2)
        rt = MultiprocessRuntime(plan)
        with pytest.raises(ShapeError):
            rt.factorize(np.zeros(5))
        with pytest.raises(ShapeError):
            rt.factorize(rng.standard_normal((16, 32)))

    def test_spawn_start_method(self, rng, optimizer, monkeypatch):
        """Spawn is the only start method on macOS and Windows: every
        message must pickle, and the ClockSync offsets must place worker
        events on the manager's clock."""
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        a = rng.standard_normal((96, 96))
        plan = optimizer.plan(matrix_size=96, num_devices=2)
        assert len(plan.participants) == 2
        tracer = Tracer()
        t0 = perf_counter()
        f = MultiprocessRuntime(plan, tracer=tracer).factorize(a.copy(), 16)
        t1 = perf_counter()
        assert np.array_equal(f.r_dense(), tiled_qr(a, 16).r_dense())
        records = tracer.task_records()  # raw manager-clock timestamps
        assert Counter(r.task for r in records) == Counter(build_dag(6, 6, "TS").tasks)
        assert {r.device_id for r in records} == set(plan.participants)
        assert all(t0 <= r.start <= r.end <= t1 for r in records)
