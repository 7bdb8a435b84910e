"""Pluggable elimination trees: DAG properties, scheduling, end-to-end.

Everything here is parametrized over *every* registered tree (via
``tests.strategies.ALL_TREES``) so the legality / completeness /
soundness guarantees the TS/TT pair enjoyed extend to flat-tt,
fibonacci, and greedy — and to any tree registered later:

* DAG structural laws: every subdiagonal tile annihilated exactly once
  per panel, the panel survivor is row ``k``, ``validate()`` passes,
  and the fused (``batch_updates=True``) DAG is a correctness-equivalent
  collapse of the unfused one (transitive-closure argument, same as
  ``test_kernels_batched``).
* Priority scheduling: bottom-level ranks are strictly monotone along
  every DAG edge, for unit and flop-model weights, batched or not.
* End-to-end: serial / threaded / multiprocess runs of the same matrix
  produce bit-identical R per tree, and reconstruct A.
* Checkpointing: a greedy run's snapshot round-trips its tree name, and
  resuming it under a different tree fails with ``CheckpointError``.
* Planning: the critical-path ordering the optimizer exploits on tall
  grids (greedy <= binary <= flat under flop weights, arXiv:1104.4475)
  holds analytically, and the best of greedy/fibonacci reaches >= 1.4x
  FLAT's modelled 16-slot makespan on a 16x4 grid.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import (
    TaskKind,
    build_dag,
    bottom_level_ranks,
    canonical_tree,
    critical_path_length,
    resolve_tree,
    task_weight_model,
    tree_names,
)
from repro.errors import DAGError
from repro.runtime.checkpoint import CheckpointError, load_partial_factorization
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime

from .strategies import ALL_TREES, grids, trees

MERGE_KINDS = (TaskKind.TSQRT, TaskKind.TTQRT)


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_five_trees_registered(self):
        assert set(tree_names()) == {"flat", "flat-tt", "binary", "fibonacci", "greedy"}

    def test_legacy_aliases_resolve(self):
        assert canonical_tree("TS") == "flat"
        assert canonical_tree("tt") == "binary"
        assert canonical_tree("GREEDY") == "greedy"

    def test_unknown_tree_lists_registry(self):
        with pytest.raises(DAGError, match="flat.*greedy|greedy.*flat"):
            canonical_tree("XX")

    @pytest.mark.parametrize("tree", ALL_TREES)
    def test_pairs_annihilate_each_row_once(self, tree):
        t = resolve_tree(tree)
        for p in range(1, 12):
            for k in range(p):
                pairs = t.pairs(k, p)
                bots = [b for b, _ in pairs]
                assert sorted(bots) == list(range(k + 1, p)), (tree, p, k)
                for bot, top in pairs:
                    assert k <= top < bot, (tree, p, k, bot, top)

    @pytest.mark.parametrize("tree", ALL_TREES)
    def test_survivor_is_row_k(self, tree):
        """After replaying the pair list, only row k remains live."""
        t = resolve_tree(tree)
        for p in range(1, 12):
            for k in range(p):
                live = set(range(k, p))
                for bot, top in t.pairs(k, p):
                    assert bot in live and top in live, (tree, p, k, bot, top)
                    live.discard(bot)
                assert live == {k}, (tree, p, k)


# ---------------------------------------------------------------------------
# DAG structural laws, all trees


@settings(max_examples=40, deadline=None)
@given(grid=grids, tree=trees, batch=st.booleans())
def test_dag_validates_for_every_tree(grid, tree, batch):
    p, q = grid
    dag = build_dag(p, q, tree, batch_updates=batch)
    dag.validate()
    merges = [t for t in dag.tasks if t.kind in MERGE_KINDS]
    panels = min(p, q)
    expected = sum(p - k - 1 for k in range(panels))
    assert len(merges) == expected


@settings(max_examples=25, deadline=None)
@given(grid=grids, tree=trees)
def test_ts_trees_use_tsqrt_tt_trees_use_ttqrt(grid, tree):
    p, q = grid
    dag = build_dag(p, q, tree)
    kinds = {t.kind for t in dag.tasks if t.kind in MERGE_KINDS}
    expected = {TaskKind.TTQRT} if resolve_tree(tree).uses_tt else {TaskKind.TSQRT}
    assert kinds == expected or not kinds  # empty when the grid has no merges


def _per_tile_parent(fused_dag):
    parent = {}
    for t in fused_dag.tasks:
        for e in t.expand() if t.is_batch else [t]:
            parent[e] = t
    return parent


@pytest.mark.parametrize("tree", ALL_TREES)
@pytest.mark.parametrize("grid", [(4, 3), (5, 2)])
class TestFusedEquivalenceAllTrees:
    """Legality / completeness / soundness of batched coarsening, per tree."""

    def test_expansion_matches_unfused_task_multiset(self, grid, tree):
        p, q = grid
        unfused = build_dag(p, q, tree)
        fused = build_dag(p, q, tree, batch_updates=True)
        expanded = sorted(
            e for t in fused.tasks for e in (t.expand() if t.is_batch else [t])
        )
        assert expanded == sorted(unfused.tasks)

    def test_dependencies_are_equivalent(self, grid, tree):
        nx = pytest.importorskip("networkx")
        p, q = grid
        unfused = build_dag(p, q, tree)
        fused = build_dag(p, q, tree, batch_updates=True)
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
                    assert not un_c.has_edge(u, v), (u, v)  # legality
                elif un_c.has_edge(u, v):
                    assert fu_c.has_edge(parent[u], parent[v]), (u, v)  # completeness
        for a_task in fused.tasks:
            ea = a_task.expand() if a_task.is_batch else [a_task]
            for b_task in fused.succs[a_task]:
                eb = b_task.expand() if b_task.is_batch else [b_task]
                assert any(
                    un_c.has_edge(x, y) for x in ea for y in eb
                ), (a_task, b_task)  # soundness


# ---------------------------------------------------------------------------
# Priority scheduling


@settings(max_examples=40, deadline=None)
@given(grid=grids, tree=trees, batch=st.booleans(), flop_weights=st.booleans())
def test_bottom_level_ranks_monotone_along_every_edge(grid, tree, batch, flop_weights):
    """rank(pred) > rank(succ) on every edge — the invariant that makes
    highest-rank-first dispatch a critical-path schedule."""
    p, q = grid
    dag = build_dag(p, q, tree, batch_updates=batch)
    weight = task_weight_model(8) if flop_weights else None
    ranks = bottom_level_ranks(dag, weight)
    assert set(ranks) == set(dag.tasks)
    for t in dag.tasks:
        for s in dag.succs[t]:
            assert ranks[t] > ranks[s], (t, s)
    # A sink's rank is exactly its own weight; every rank is positive.
    w = weight or (lambda _t: 1.0)
    for t in dag.tasks:
        assert ranks[t] > 0.0
        if not dag.succs[t]:
            assert ranks[t] == pytest.approx(w(t))


def test_weighted_critical_path_ordering_tall_grid():
    """arXiv:1104.4475 Table: on tall grids, under the flop weight
    model, greedy <= binary <= flat critical path."""
    w = task_weight_model(16)
    cp = {
        name: critical_path_length(build_dag(16, 4, name), weight=w)
        for name in tree_names()
    }
    assert cp["greedy"] <= cp["binary"] <= cp["flat"]
    assert cp["greedy"] < cp["flat"]  # strict win somewhere


def priority_makespan(dag, weight, slots: int) -> float:
    """Makespan of the highest-rank-first list schedule on ``slots``.

    The dispatch rule is the runtimes' one: among ready tasks, pop the
    largest bottom-level rank (ties broken by task sort key).
    """
    ranks = bottom_level_ranks(dag, weight)
    ndep = {t: len(dag.preds[t]) for t in dag.tasks}
    ready = [(-ranks[t], t.sort_key(), t) for t in dag.tasks if not ndep[t]]
    heapq.heapify(ready)
    running: list = []
    now, free = 0.0, slots
    while ready or running:
        while ready and free:
            _, _, t = heapq.heappop(ready)
            heapq.heappush(running, (now + weight(t), t.sort_key(), t))
            free -= 1
        now, _, t = heapq.heappop(running)
        free += 1
        for s in dag.succs[t]:
            ndep[s] -= 1
            if ndep[s] == 0:
                heapq.heappush(ready, (-ranks[s], s.sort_key(), s))
    return now


def test_modelled_tree_speedup_tall_grid():
    """arXiv:1104.4475: on a tall 16x4 grid, a log-depth tree beats FLAT's
    sequential TSQRT chain by >= 1.4x in modelled makespan.

    Modelled, not timed: the whole DAG is list-scheduled highest rank
    first onto 16 slots (one per panel row) with each kernel priced by
    the flop model at b=16, so the result is deterministic and
    independent of the host's core count.
    """
    w = task_weight_model(16)
    makespan = {
        name: priority_makespan(build_dag(16, 4, name), w, slots=16)
        for name in ("flat", "greedy", "fibonacci")
    }
    best = max(makespan["flat"] / makespan[t] for t in ("greedy", "fibonacci"))
    assert best >= 1.4, f"best of greedy/fibonacci is only {best:.3f}x vs flat"


# ---------------------------------------------------------------------------
# End-to-end: 3 runtimes bit-identical per tree


N, B = 96, 16


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(4475).standard_normal((N, N))


@pytest.fixture(scope="module")
def mp_plan():
    from repro.core.optimizer import Optimizer
    from repro.devices.registry import paper_testbed

    return Optimizer(paper_testbed()).plan(matrix_size=N, tile_size=B)


@pytest.mark.parametrize("tree", ALL_TREES)
class TestRuntimesBitIdentical:
    def test_three_runtimes_agree_and_reconstruct(self, tree, matrix, mp_plan):
        from repro.runtime.multiprocess import MultiprocessRuntime

        serial = SerialRuntime(tree).factorize(matrix.copy(), B)
        threaded = ThreadedRuntime(4, tree).factorize(matrix.copy(), B)
        mp = MultiprocessRuntime(mp_plan, elimination=tree).factorize(matrix, B)
        r = serial.r_dense()
        np.testing.assert_array_equal(threaded.r_dense(), r)
        np.testing.assert_array_equal(mp.r_dense(), r)
        q = serial.q_dense()
        err = np.linalg.norm(q @ r - matrix) / np.linalg.norm(matrix)
        assert err < 1e-12
        assert np.allclose(q.T @ q, np.eye(N), atol=1e-12)

    def test_batched_matches_per_tile(self, tree, matrix):
        ref = SerialRuntime(tree).factorize(matrix.copy(), B)
        bat = SerialRuntime(tree, batch_updates=True).factorize(matrix.copy(), B)
        np.testing.assert_array_equal(bat.r_dense(), ref.r_dense())


# ---------------------------------------------------------------------------
# Checkpoint round-trip and mismatch


class TestCheckpointTreeValidation:
    def _interrupt(self, matrix, path, tree):
        from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, NO_RETRY
        from repro.errors import RetryExhaustedError

        plan = FaultPlan(
            specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=3, times=99),)
        )
        runtime = SerialRuntime(
            tree,
            chaos=ChaosEngine(plan),
            retry_policy=NO_RETRY,
            checkpoint_every=10,
            checkpoint_path=path,
        )
        with pytest.raises(RetryExhaustedError):
            runtime.factorize(matrix.copy(), B)
        assert path.exists()
        return path

    def test_snapshot_roundtrips_canonical_tree(self, matrix, tmp_path):
        path = self._interrupt(matrix, tmp_path / "snap.npz", "greedy")
        state = load_partial_factorization(path)
        assert canonical_tree(state.elimination) == "greedy"

    def test_resume_with_matching_tree_finishes_identically(self, matrix, tmp_path):
        from repro.runtime.checkpoint import resume_factorization

        clean = SerialRuntime("greedy").factorize(matrix.copy(), B)
        path = self._interrupt(matrix, tmp_path / "snap.npz", "greedy")
        fact = resume_factorization(path)  # adopts the snapshot's tree
        np.testing.assert_array_equal(fact.r_dense(), clean.r_dense())

    @pytest.mark.parametrize("wrong", ["flat", "fibonacci", "TT"])
    def test_resume_with_mismatched_tree_raises(self, matrix, tmp_path, wrong):
        path = self._interrupt(matrix, tmp_path / "snap.npz", "greedy")
        state = load_partial_factorization(path)
        with pytest.raises(CheckpointError, match="greedy"):
            SerialRuntime(wrong).factorize(state.tiled, B, resume=state)


# ---------------------------------------------------------------------------
# Trace provenance + diff refusal


class TestTraceProvenance:
    def test_jsonl_roundtrips_tree_meta(self, matrix):
        from repro.observability import Tracer, MetricsRegistry, dump_jsonl, load_jsonl

        tracer = Tracer(metrics=MetricsRegistry())
        SerialRuntime("fibonacci", tracer=tracer).factorize(matrix.copy(), B)
        trace = tracer.to_trace()
        trace.meta["elimination"] = "fibonacci"
        loaded = load_jsonl(dump_jsonl(trace).splitlines())
        assert loaded.meta["elimination"] == "fibonacci"

    def test_diff_refuses_mismatched_trees(self, matrix):
        from repro.errors import ObservabilityError
        from repro.observability import Tracer, MetricsRegistry, diff_traces

        t1 = Tracer(metrics=MetricsRegistry())
        SerialRuntime("greedy", tracer=t1).factorize(matrix.copy(), B)
        a = t1.to_trace()
        a.meta["elimination"] = "greedy"
        t2 = Tracer(metrics=MetricsRegistry())
        SerialRuntime("flat", tracer=t2).factorize(matrix.copy(), B)
        b = t2.to_trace()
        b.meta["elimination"] = "TS"
        with pytest.raises(ObservabilityError, match="different elimination"):
            diff_traces(a, b)
        # Aliases of the SAME tree must still compare fine.
        b.meta["elimination"] = "greedy"
        diff_traces(a, b)

    def test_diff_tolerates_missing_meta(self, matrix):
        from repro.observability import Tracer, MetricsRegistry, diff_traces

        t1 = Tracer(metrics=MetricsRegistry())
        SerialRuntime("greedy", tracer=t1).factorize(matrix.copy(), B)
        a = t1.to_trace()
        diff_traces(a, a)  # no meta on either side: legacy behavior


# ---------------------------------------------------------------------------
# Planner STAGE_TREE audit


class TestPlannerTreeSelection:
    def test_plan_records_stage_tree_audit(self):
        from repro.core.optimizer import Optimizer
        from repro.devices.registry import paper_testbed
        from repro.observability.decisions import DecisionAudit, STAGE_TREE

        audit = DecisionAudit()
        opt = Optimizer(paper_testbed())
        plan = opt.plan(matrix_size=128, tile_size=16, tree="auto", audit=audit)
        recs = [r for r in audit.records if r.stage == STAGE_TREE]
        assert len(recs) == 1
        rec = recs[0]
        assert rec.chosen == plan.notes["tree"]
        assert {c.name for c in rec.candidates} == set(tree_names())

    def test_forced_tree_is_honored_but_still_scored(self):
        from repro.core.optimizer import Optimizer
        from repro.devices.registry import paper_testbed
        from repro.observability.decisions import DecisionAudit, STAGE_TREE

        audit = DecisionAudit()
        opt = Optimizer(paper_testbed())
        plan = opt.plan(matrix_size=128, tile_size=16, tree="greedy", audit=audit)
        assert plan.notes["tree"] == "greedy"
        (rec,) = [r for r in audit.records if r.stage == STAGE_TREE]
        assert rec.chosen == "greedy"
        assert len(rec.candidates) == len(tree_names())

    def test_executor_tree_kwarg_end_to_end(self, matrix):
        from repro.core.executor import TiledQR
        from repro.devices.registry import paper_testbed

        qr = TiledQR(paper_testbed())
        result = qr.factorize(matrix.copy(), B, tree="greedy")
        ref = SerialRuntime("greedy").factorize(matrix.copy(), B)
        np.testing.assert_array_equal(result.factorization.r_dense(), ref.r_dense())
