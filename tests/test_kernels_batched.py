"""Batched row-panel update kernels and the ``batch_updates`` path.

Covers the whole stack: the fused kernels agree with per-tile loops
(property-tested), the coarsened DAG is dependency-equivalent to the
unfused one, all three runtimes produce bit-identical factors with
batching on, traces/metrics account batched tasks correctly, and the
benchmark's measurement harness runs at smoke sizes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.dag import build_dag
from repro.dag.tasks import Task, TaskKind
from repro.errors import TilingError
from repro.kernels import (
    Workspace,
    check_orthogonality,
    check_reconstruction,
    geqrt,
    tsmqr,
    tsmqr_batch,
    tsqrt,
    unmqr,
    unmqr_batch,
)
from repro.observability import (
    MetricsRegistry,
    Tracer,
    diff_traces,
    expand_batched,
    kernel_flops,
)
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime, tiled_qr
from repro.runtime.threaded import ThreadedRuntime, split_batch
from repro.tiles import TiledMatrix
from tests.strategies import batch_tile_sizes, batch_widths, wide_seeds

PARITY_TOL = 1e-12


class TestWorkspace:
    def test_temp_reuses_buffer_across_calls(self):
        ws = Workspace()
        a = ws.temp("w", (4, 8), np.float64)
        a[...] = 7.0
        b = ws.temp("w", (4, 8), np.float64)
        assert np.shares_memory(a, b)

    def test_temp_grows_and_shrinks_views(self):
        ws = Workspace()
        small = ws.temp("w", (2, 2), np.float64)
        big = ws.temp("w", (8, 8), np.float64)
        assert big.shape == (8, 8)
        again = ws.temp("w", (2, 2), np.float64)
        assert again.shape == (2, 2)
        assert np.shares_memory(big, again)
        assert small.shape == (2, 2)

    def test_temp_keys_by_dtype(self):
        ws = Workspace()
        f = ws.temp("w", (3, 3), np.float64)
        c = ws.temp("w", (3, 3), np.complex128)
        assert f.dtype == np.float64 and c.dtype == np.complex128
        assert not np.shares_memory(f, c)

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.temp("w", (16, 16), np.float64)
        assert ws.nbytes >= 16 * 16 * 8
        ws.clear()
        assert ws.nbytes == 0


class TestBatchedKernelParity:
    """Fused kernels == per-tile loops, property-tested over shapes."""

    @settings(max_examples=25, deadline=None)
    @given(b=batch_tile_sizes, ntiles=batch_widths, seed=wide_seeds)
    def test_unmqr_batch_matches_per_tile(self, b, ntiles, seed):
        rng = np.random.default_rng(seed)
        f = geqrt(rng.standard_normal((b, b)))
        panel = rng.standard_normal((b, ntiles * b))
        batched = panel.copy()
        unmqr_batch(f, batched, workspace=Workspace())
        loop = panel.copy()
        for j in range(ntiles):
            unmqr(f, loop[:, j * b : (j + 1) * b])
        np.testing.assert_allclose(batched, loop, atol=PARITY_TOL, rtol=0)

    @settings(max_examples=25, deadline=None)
    @given(b=batch_tile_sizes, ntiles=batch_widths, seed=wide_seeds)
    def test_tsmqr_batch_matches_per_tile(self, b, ntiles, seed):
        rng = np.random.default_rng(seed)
        f = tsqrt(rng.standard_normal((b, b)), rng.standard_normal((b, b)))
        top = rng.standard_normal((b, ntiles * b))
        bot = rng.standard_normal((b, ntiles * b))
        top_b, bot_b = top.copy(), bot.copy()
        tsmqr_batch(f, top_b, bot_b, workspace=Workspace())
        top_l, bot_l = top.copy(), bot.copy()
        for j in range(ntiles):
            sl = slice(j * b, (j + 1) * b)
            tsmqr(f, top_l[:, sl], bot_l[:, sl])
        np.testing.assert_allclose(top_b, top_l, atol=PARITY_TOL, rtol=0)
        np.testing.assert_allclose(bot_b, bot_l, atol=PARITY_TOL, rtol=0)

    def test_batch_kernels_validate_shapes(self):
        rng = np.random.default_rng(0)
        f = geqrt(rng.standard_normal((4, 4)))
        with pytest.raises(Exception):
            unmqr_batch(f, rng.standard_normal((3, 8)))
        fe = tsqrt(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        with pytest.raises(Exception):
            tsmqr_batch(fe, rng.standard_normal((4, 8)), rng.standard_normal((4, 12)))


class TestBatchTaskModel:
    def test_expand_is_the_per_tile_multiset(self):
        t = Task(TaskKind.TSMQR_BATCH, 1, 3, 1, 2, 6)
        assert t.ncols == 4 and t.last_col == 5 and t.is_batch
        assert t.expand() == [Task(TaskKind.TSMQR, 1, 3, 1, j) for j in range(2, 6)]

    def test_non_batch_rejects_col_end(self):
        with pytest.raises(Exception):
            Task(TaskKind.UNMQR, 0, 0, 0, 1, 3)

    def test_batch_requires_nonempty_range(self):
        with pytest.raises(Exception):
            Task(TaskKind.UNMQR_BATCH, 0, 0, 0, 2, 2)

    def test_split_batch_partitions_the_expansion(self):
        t = Task(TaskKind.UNMQR_BATCH, 0, 0, 0, 1, 8)
        for parts in (1, 2, 3, 7, 20):
            chunks = split_batch(t, parts)
            assert len(chunks) == min(max(parts, 1), t.ncols)
            merged = [e for c in chunks for e in c.expand()]
            assert merged == t.expand()

    def test_split_batch_passes_per_tile_tasks_through(self):
        t = Task(TaskKind.TSMQR, 0, 1, 0, 2)
        assert split_batch(t, 4) == [t]


def _per_tile_parent(fused_dag):
    """Map each per-tile task to its fused-DAG task."""
    parent = {}
    for t in fused_dag.tasks:
        for e in t.expand() if t.is_batch else [t]:
            parent[e] = t
    return parent


@pytest.mark.parametrize("elimination", ["TS", "TT"])
@pytest.mark.parametrize("grid", [(3, 3), (4, 3), (4, 4)])
class TestFusedDagEquivalence:
    def test_expansion_matches_unfused_task_multiset(self, grid, elimination):
        p, q = grid
        unfused = build_dag(p, q, elimination)
        fused = build_dag(p, q, elimination, batch_updates=True)
        expanded = sorted(
            e
            for t in fused.tasks
            for e in (t.expand() if t.is_batch else [t])
        )
        assert expanded == sorted(unfused.tasks)
        assert any(t.is_batch for t in fused.tasks)  # coarsening happened

    def test_dependencies_are_equivalent(self, grid, elimination):
        """The fused DAG is a correctness-equivalent collapse of the
        unfused one:

        * **legality** — tasks fused into one batch are mutually
          unordered in the unfused DAG (they touch disjoint tiles), so
          fusing them discards no required ordering;
        * **completeness** — every unfused ordering between tasks of
          different batches survives: u -> v unfused implies
          parent(u) -> parent(v) fused;
        * **soundness** — every fused edge is witnessed by at least one
          per-tile dependence between the two expansions (coarsening
          may *add* conservative orderings within a witnessed edge, but
          never invents an edge between independent task groups).
        """
        nx = pytest.importorskip("networkx")
        p, q = grid
        unfused = build_dag(p, q, elimination)
        fused = build_dag(p, q, elimination, batch_updates=True)
        parent = _per_tile_parent(fused)

        def closure(dag):
            g = nx.DiGraph()
            g.add_nodes_from(dag.tasks)
            for t in dag.tasks:
                for s in dag.succs[t]:
                    g.add_edge(t, s)
            return nx.transitive_closure_dag(g)

        un_c, fu_c = closure(unfused), closure(fused)
        tasks = list(unfused.tasks)
        for u in tasks:
            for v in tasks:
                if u == v:
                    continue
                if parent[u] == parent[v]:
                    assert not un_c.has_edge(u, v), (u, v)
                elif un_c.has_edge(u, v):
                    assert fu_c.has_edge(parent[u], parent[v]), (u, v)
        for a_task in fused.tasks:
            ea = a_task.expand() if a_task.is_batch else [a_task]
            for b_task in fused.succs[a_task]:
                eb = b_task.expand() if b_task.is_batch else [b_task]
                assert any(
                    un_c.has_edge(x, y) for x in ea for y in eb
                ), (a_task, b_task)


class TestEndToEndBatched:
    N, B = 96, 16

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(42).standard_normal((self.N, self.N))

    @pytest.mark.parametrize("elimination", ["TS", "TT"])
    def test_serial_batched_is_bit_identical_and_valid(self, matrix, elimination):
        ref = SerialRuntime(elimination).factorize(matrix.copy(), self.B)
        bat = SerialRuntime(elimination, batch_updates=True).factorize(
            matrix.copy(), self.B
        )
        np.testing.assert_array_equal(bat.r_dense(), ref.r_dense())
        q = bat.q_dense()
        check_reconstruction(matrix, q, bat.r_dense())
        check_orthogonality(q)

    @pytest.mark.parametrize("elimination", ["TS", "TT"])
    def test_threaded_batched_is_valid(self, matrix, elimination):
        bat = ThreadedRuntime(4, elimination, batch_updates=True).factorize(
            matrix.copy(), self.B
        )
        ref = SerialRuntime(elimination).factorize(matrix.copy(), self.B)
        np.testing.assert_array_equal(bat.r_dense(), ref.r_dense())
        q = bat.q_dense()
        check_reconstruction(matrix, q, bat.r_dense())
        check_orthogonality(q)

    def test_multiprocess_batched_is_valid(self, matrix, optimizer):
        plan = optimizer.plan(matrix_size=self.N, tile_size=self.B)
        bat = MultiprocessRuntime(plan, batch_updates=True).factorize(matrix, self.B)
        ref = SerialRuntime("TS").factorize(matrix.copy(), self.B)
        np.testing.assert_array_equal(bat.r_dense(), ref.r_dense())
        q = bat.q_dense()
        check_reconstruction(matrix, q, bat.r_dense())
        check_orthogonality(q)

    def test_tiled_qr_entry_point_accepts_batch_updates(self, matrix):
        f = tiled_qr(matrix, self.B, batch_updates=True)
        check_reconstruction(matrix, f.q_dense(), f.r_dense())

    def test_single_worker_threaded_runs_unsplit_batches(self, matrix):
        bat = ThreadedRuntime(1, batch_updates=True).factorize(matrix.copy(), self.B)
        ref = SerialRuntime("TS").factorize(matrix.copy(), self.B)
        np.testing.assert_array_equal(bat.r_dense(), ref.r_dense())


class TestBatchedObservability:
    N, B = 64, 16

    @pytest.fixture(scope="class")
    def traces(self):
        a = np.random.default_rng(7).standard_normal((self.N, self.N))
        per_tracer = Tracer(metrics=MetricsRegistry())
        SerialRuntime(tracer=per_tracer).factorize(a.copy(), self.B)
        bat_tracer = Tracer(metrics=MetricsRegistry())
        SerialRuntime(tracer=bat_tracer, batch_updates=True).factorize(
            a.copy(), self.B
        )
        return per_tracer, bat_tracer

    def test_expanded_batched_trace_matches_per_tile_trace(self, traces):
        per_tracer, bat_tracer = traces
        raw = bat_tracer.to_trace()
        assert any(r.task.is_batch for r in raw.tasks)
        diff = diff_traces(expand_batched(per_tracer.to_trace()), expand_batched(raw))
        assert diff.task_sets_match

    def test_expand_batched_preserves_kernel_time_and_count(self, traces):
        _, bat_tracer = traces
        raw = bat_tracer.to_trace()
        expanded = expand_batched(raw)
        assert len(expanded.tasks) == sum(r.task.ncols for r in raw.tasks)
        assert sum(r.duration for r in expanded.tasks) == pytest.approx(
            sum(r.duration for r in raw.tasks)
        )
        assert not any(r.task.is_batch for r in expanded.tasks)

    def test_batched_flops_accounting_matches_per_tile(self, traces):
        per_tracer, bat_tracer = traces
        per = per_tracer.metrics.snapshot()["counters"]
        bat = bat_tracer.metrics.snapshot()["counters"]
        assert (
            bat["kernel.UNMQR_BATCH.flops"] == per["kernel.UNMQR.flops"]
        )
        assert (
            bat["kernel.TSMQR_BATCH.flops"] == per["kernel.TSMQR.flops"]
        )

    def test_batch_tile_count_histogram_recorded(self, traces):
        _, bat_tracer = traces
        snap = bat_tracer.metrics.snapshot()
        tiles = snap["histograms"]["kernel.TSMQR_BATCH.tiles"]
        # 64/16 = 4x4 grid: panel k updates are (q - k - 1)-wide batches
        assert tiles["max"] == 3 and tiles["min"] == 1
        assert tiles["count"] == snap["counters"]["kernel.TSMQR_BATCH.calls"]

    def test_kernel_flops_scales_with_ncols(self):
        b = 8
        assert kernel_flops(TaskKind.UNMQR_BATCH, b, 5) == 5 * kernel_flops(
            TaskKind.UNMQR, b
        )
        assert kernel_flops(TaskKind.TSMQR_BATCH, b, 3) == 3 * kernel_flops(
            TaskKind.TSMQR, b
        )

    def test_jsonl_round_trips_col_end(self, traces):
        from repro.observability import dump_jsonl, load_jsonl

        _, bat_tracer = traces
        raw = bat_tracer.to_trace()
        loaded = load_jsonl(dump_jsonl(raw))
        assert sorted(r.task for r in loaded.tasks) == sorted(
            r.task for r in raw.tasks
        )


class TestRowMajorStorage:
    def test_row_major_round_trip(self, rng):
        a = rng.standard_normal((48, 32))
        tm = TiledMatrix.from_dense(a, 16, storage="rowmajor")
        assert tm.is_row_major
        np.testing.assert_array_equal(tm.to_dense(), a)

    def test_row_panel_is_zero_copy_in_row_major(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 64)), 16, storage="rowmajor")
        panel = tm.row_panel(0, 1, 4)
        assert np.shares_memory(panel, tm.tile(0, 2))
        panel[...] = 5.0
        assert np.all(tm.tile(0, 3) == 5.0)
        tm.scatter_row_panel(0, 1, 4, panel)  # no-op on aliased storage
        assert np.all(tm.tile(0, 3) == 5.0)

    def test_row_panel_scatter_in_legacy_layout(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 64)), 16)
        assert not tm.is_row_major
        panel = tm.row_panel(1, 0, 4)
        assert panel.shape == (16, 64)
        panel[...] = -3.0
        assert not np.all(tm.tile(1, 2) == -3.0)  # gathered copy
        tm.scatter_row_panel(1, 0, 4, panel)
        assert np.all(tm.tile(1, 2) == -3.0)

    def test_row_panel_range_validation(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 32)), 16)
        with pytest.raises(TilingError):
            tm.row_panel(0, 1, 1)
        with pytest.raises(TilingError):
            tm.row_panel(5, 0, 1)

    def test_set_tile_rejects_dtype_mismatch(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 32)), 16)
        with pytest.raises(TilingError):
            tm.set_tile(0, 0, np.zeros((16, 16), dtype=np.float32))
        tm.set_tile(0, 0, np.zeros((16, 16)))  # matching dtype is fine

    def test_tile_returns_live_view(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 32)), 16)
        tm.tile(1, 1)[...] = 9.0
        assert np.all(tm.to_dense()[16:, 16:] == 9.0)

    def test_copy_preserves_storage_mode(self, rng):
        tm = TiledMatrix.from_dense(rng.standard_normal((32, 32)), 16, storage="rowmajor")
        assert tm.copy().is_row_major


class TestGeqrtCopies:
    def test_integer_input_is_converted_once_and_factored(self):
        a = np.arange(16, dtype=np.int64).reshape(4, 4) + np.eye(4, dtype=np.int64)
        f = geqrt(a)
        assert f.r.dtype == np.float64
        assert a.dtype == np.int64  # input untouched
        q = np.eye(4) - f.v @ f.tf @ f.v.T
        np.testing.assert_allclose(q @ f.r, a.astype(np.float64), atol=1e-12)


class TestBenchmarkSmoke:
    def test_bench_batched_updates_harness(self):
        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_batched_updates.py"
        )
        spec = importlib.util.spec_from_file_location("bench_batched_updates", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        case = mod.bench_case(3, 8, rounds=1)
        assert case["per_tile_seconds"] > 0 and case["batched_seconds"] > 0
        assert case["grid"] == 3 and case["tile_size"] == 8
