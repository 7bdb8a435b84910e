"""Tests for task definitions, the DAG builder, analysis and export."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import (
    Step,
    Task,
    TaskKind,
    build_dag,
    critical_path_length,
    max_parallelism,
    step_counts,
    task_counts_total,
)
from repro.dag.analysis import dag_step_counts, per_panel_ready_updates
from repro.dag import builder
from repro.dag.builder import TiledQRDag, task_accesses
from repro.dag.solve import SolveDag
from repro.dag.trees import tree_names
from repro.dag.export import to_dot, to_networkx
from repro.errors import DAGError


class TestTask:
    def test_step_mapping(self):
        assert TaskKind.GEQRT.step is Step.T
        assert TaskKind.TSQRT.step is Step.E
        assert TaskKind.TTQRT.step is Step.E
        assert TaskKind.UNMQR.step is Step.UT
        assert TaskKind.TSMQR.step is Step.UE
        assert TaskKind.TTMQR.step is Step.UE

    def test_update_flag(self):
        assert Step.UT.is_update and Step.UE.is_update
        assert not Step.T.is_update and not Step.E.is_update

    def test_validation_geqrt_row2(self):
        with pytest.raises(DAGError):
            Task(TaskKind.GEQRT, 0, 1, 0, 0)

    def test_validation_geqrt_col(self):
        with pytest.raises(DAGError):
            Task(TaskKind.GEQRT, 0, 0, 0, 1)

    def test_validation_elim_rows(self):
        with pytest.raises(DAGError):
            Task(TaskKind.TSQRT, 0, 1, 1, 0)  # top row not above bottom

    def test_validation_elim_col(self):
        with pytest.raises(DAGError):
            Task(TaskKind.TSQRT, 0, 1, 0, 1)

    def test_negative_index(self):
        with pytest.raises(DAGError):
            Task(TaskKind.UNMQR, -1, 0, 0, 0)

    def test_labels(self):
        assert Task(TaskKind.GEQRT, 0, 0, 0, 0).label() == "T[0,0]"
        assert Task(TaskKind.TSQRT, 0, 2, 0, 0).label() == "E[0+2,0]"
        assert "UT" in Task(TaskKind.UNMQR, 0, 0, 0, 1).label()
        assert "UE" in Task(TaskKind.TSMQR, 0, 1, 0, 2).label()

    def test_hashable_and_ordered(self):
        a = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        b = Task(TaskKind.GEQRT, 1, 1, 1, 1)
        assert len({a, b, a}) == 2
        assert sorted([b, a])[0] == a


class TestBuilderTS:
    def test_counts_match_closed_form(self):
        for p, q in [(1, 1), (3, 3), (5, 3), (3, 5), (6, 6)]:
            dag = build_dag(p, q)
            expect = task_counts_total(p, q)
            assert dag.count_by_step() == expect, (p, q)

    def test_structure_valid(self):
        for p, q in [(1, 1), (4, 4), (5, 2)]:
            build_dag(p, q).validate()

    def test_single_tile(self):
        dag = build_dag(1, 1)
        assert len(dag) == 1
        assert dag.tasks[0].kind is TaskKind.GEQRT

    def test_first_task_is_geqrt_00(self):
        dag = build_dag(4, 4)
        assert dag.tasks[0] == Task(TaskKind.GEQRT, 0, 0, 0, 0)
        assert dag.sources() == [dag.tasks[0]]

    def test_elimination_chain_sequential(self):
        dag = build_dag(4, 4)
        e1 = Task(TaskKind.TSQRT, 0, 1, 0, 0)
        e2 = Task(TaskKind.TSQRT, 0, 2, 0, 0)
        e3 = Task(TaskKind.TSQRT, 0, 3, 0, 0)
        assert e1 in dag.preds[e2]
        assert e2 in dag.preds[e3]

    def test_updates_of_same_elim_parallel(self):
        dag = build_dag(3, 4)
        u1 = Task(TaskKind.TSMQR, 0, 1, 0, 1)
        u2 = Task(TaskKind.TSMQR, 0, 1, 0, 2)
        assert u1 not in dag.preds[u2]
        assert u2 not in dag.preds[u1]

    def test_unmqr_depends_on_geqrt(self):
        dag = build_dag(3, 3)
        g = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        u = Task(TaskKind.UNMQR, 0, 0, 0, 2)
        assert g in dag.preds[u]

    def test_next_panel_geqrt_depends_on_update(self):
        dag = build_dag(3, 3)
        g1 = Task(TaskKind.GEQRT, 1, 1, 1, 1)
        # Last writer of tile (1,1) in panel 0 is TSMQR(0, row=1, col=1).
        u = Task(TaskKind.TSMQR, 0, 1, 0, 1)
        assert u in dag.preds[g1]

    def test_fig3_pattern(self):
        """Paper Fig. 3: T leads UT (right) and E (down); E leads UE and
        the next column's T (via UE)."""
        dag = build_dag(3, 3)
        t0 = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        assert Task(TaskKind.UNMQR, 0, 0, 0, 1) in dag.succs[t0]
        assert Task(TaskKind.TSQRT, 0, 1, 0, 0) in dag.succs[t0]
        e = Task(TaskKind.TSQRT, 0, 1, 0, 0)
        assert Task(TaskKind.TSMQR, 0, 1, 0, 1) in dag.succs[e]

    def test_sinks_in_last_panel(self):
        dag = build_dag(4, 4)
        assert all(t.k == 3 for t in dag.sinks())

    def test_panel_tasks(self):
        dag = build_dag(4, 4)
        panel0 = dag.panel_tasks(0)
        assert len(panel0) == 1 + 3 + 3 + 9

    def test_rectangular_wide(self):
        dag = build_dag(2, 5)
        dag.validate()
        assert dag.count_by_step()[Step.T] == 2

    def test_invalid_args(self):
        with pytest.raises(DAGError):
            build_dag(0, 3)
        with pytest.raises(DAGError):
            build_dag(3, 3, "XX")


class TestBuilderTT:
    def test_valid_and_more_tasks(self):
        ts = build_dag(6, 6, "TS")
        tt = build_dag(6, 6, "TT")
        tt.validate()
        assert len(tt) > len(ts)

    def test_shorter_critical_path_for_tall(self):
        ts = build_dag(16, 2, "TS")
        tt = build_dag(16, 2, "TT")
        assert critical_path_length(tt) < critical_path_length(ts)

    def test_each_row_eliminated_once_per_panel(self):
        dag = build_dag(8, 8, "TT")
        for k in range(8):
            eliminated = [t.row for t in dag.panel_tasks(k) if t.step is Step.E]
            assert len(eliminated) == len(set(eliminated)) == 8 - k - 1

    def test_binary_tree_round_structure(self):
        dag = build_dag(4, 1, "TT")
        elims = [t for t in dag.tasks if t.step is Step.E]
        pairs = {(t.row2, t.row) for t in elims}
        assert pairs == {(0, 1), (2, 3), (0, 2)}


class TestAnalysis:
    def test_paper_table1(self):
        c = step_counts(10, 6)
        assert c[Step.T] == 10
        assert c[Step.E] == 10
        assert c[Step.UT] == 50
        assert c[Step.UE] == 50

    def test_exact_counts(self):
        c = dag_step_counts(10, 6)
        assert c == {Step.T: 1, Step.E: 9, Step.UT: 5, Step.UE: 45}

    def test_update_totals_agree(self):
        paper = step_counts(10, 6)
        exact = dag_step_counts(10, 6)
        assert exact[Step.UT] + exact[Step.UE] == paper[Step.UT]

    def test_invalid_panel(self):
        with pytest.raises(ValueError):
            step_counts(0, 3)

    def test_critical_path_unit_weights(self):
        # 1x1 grid: single task.
        assert critical_path_length(build_dag(1, 1)) == 1.0
        assert critical_path_length(build_dag(2, 2)) >= 4.0

    def test_critical_path_custom_weight(self):
        dag = build_dag(3, 3)
        cp = critical_path_length(dag, weight=lambda t: 2.0)
        assert cp == 2.0 * critical_path_length(dag)

    def test_max_parallelism_grows_with_grid(self):
        assert max_parallelism(build_dag(8, 8)) > max_parallelism(build_dag(3, 3))

    def test_per_panel_ready_updates(self):
        assert per_panel_ready_updates(10, 10, 0) == 10 * 9
        assert per_panel_ready_updates(10, 10, 9) == 0

    @given(st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_property_closed_form_matches_builder(self, p, q):
        dag = build_dag(p, q)
        assert dag.count_by_step() == task_counts_total(p, q)


class TestAccesses:
    def test_geqrt_access(self):
        reads, writes = task_accesses(Task(TaskKind.GEQRT, 1, 1, 1, 1))
        assert ("t", 1, 1) in reads and ("t", 1, 1) in writes
        assert ("Vg", 1, 1) in writes

    def test_tsmqr_reads_factors(self):
        reads, _ = task_accesses(Task(TaskKind.TSMQR, 0, 2, 0, 3))
        assert ("Ve", 2, 0) in reads


class TestExport:
    def test_networkx_roundtrip(self):
        dag = build_dag(3, 3)
        g = to_networkx(dag)
        assert g.number_of_nodes() == len(dag)
        import networkx as nx

        assert nx.is_directed_acyclic_graph(g)
        # Edges match preds.
        assert g.number_of_edges() == sum(len(v) for v in dag.preds.values())

    def test_dot_contains_all_labels(self):
        dag = build_dag(2, 2)
        dot = to_dot(dag)
        assert dot.startswith("digraph")
        for t in dag.tasks:
            assert t.label() in dot


class TestSharedDag:
    """``build_dag`` hands out one immutable DAG per shape."""

    def test_same_key_returns_the_same_object(self):
        dag = build_dag(5, 4, "flat")
        assert build_dag(5, 4, "flat") is dag
        assert build_dag(5, 4, "TS", batch_updates=False) is dag  # alias

    def test_every_tree_and_batch_flag_gets_its_own_dag(self):
        keys = [(tree, batch) for tree in tree_names() for batch in (False, True)]
        dags = [build_dag(5, 4, tree, batch) for tree, batch in keys]
        assert len({id(d) for d in dags}) == len(keys)
        for dag, (tree, batch) in zip(dags, keys):
            assert (dag.elimination, dag.batch_updates) == (tree, batch)
            assert build_dag(5, 4, tree, batch) is dag

    def test_cache_is_bounded_and_evicts_the_oldest_shape(self, monkeypatch):
        budget = 200
        monkeypatch.setattr(builder, "DAG_CACHE_TASKS", budget)
        first = build_dag(2, 41)
        assert build_dag(2, 41) is first
        for q in range(42, 42 + budget // 42 + 1):
            newest = build_dag(1, q)
        assert sum(map(len, builder._cache.values())) <= budget
        assert build_dag(1, q) is newest
        again = build_dag(2, 41)
        assert again is not first
        assert again.tasks == first.tasks and again.succ_idx == first.succ_idx

    def test_dag_over_the_budget_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(builder, "DAG_CACHE_TASKS", 10)
        big = build_dag(4, 4)
        assert len(big) > 10
        assert build_dag(4, 4) is not big
        assert sum(map(len, builder._cache.values())) <= 10

    def test_shared_dag_cannot_be_mutated(self):
        dag = build_dag(3, 3)
        t = dag.tasks[0]
        with pytest.raises(AttributeError):
            dag.tasks.append(t)
        with pytest.raises(TypeError):
            dag.tasks[0] = t
        with pytest.raises(TypeError):
            dag.preds[t] = frozenset()
        with pytest.raises(AttributeError):
            dag.succs[t].add(t)
        order, position = dag.priority(16)
        arrays = (
            dag.pred_ptr, dag.pred_idx, dag.succ_ptr, dag.succ_idx,
            dag.indegree, order, position,
        )
        for arr in arrays:
            with pytest.raises(TypeError):
                arr[0] = 1
        for name in ("tasks", "succ_idx", "indegree", "elimination"):
            with pytest.raises(AttributeError):
                setattr(dag, name, ())

    def test_id_arrays_describe_the_task_views(self):
        dag = build_dag(4, 3, "greedy")
        dag.validate()
        for tid, task in enumerate(dag.tasks):
            assert dag.index[task] == tid
            assert dag.preds[task] == {dag.tasks[d] for d in dag.pred_ids(tid)}
            assert dag.succs[task] == {dag.tasks[s] for s in dag.succ_ids(tid)}
            assert dag.indegree[tid] == len(dag.preds[task])

    def test_direct_construction_builds_fresh_dags(self):
        shared = build_dag(4, 3)
        a, b = TiledQRDag(4, 3), TiledQRDag(4, 3)
        assert a is not shared and a is not b
        assert a.tasks == shared.tasks and a.pred_idx == shared.pred_idx
        s1, s2 = SolveDag(4), SolveDag(4)
        assert s1 is not s2 and s1.tasks == s2.tasks
        s1.validate()


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("tree", tree_names())
def test_priority_order_is_topological(tree, batch):
    """Every edge runs forward in ``dag.priority(b)``: the serial runtime
    walks that order as its schedule, with no ready heap."""
    grids = {"square": (6, 6), "tall": (12, 3), "ragged": (7, 5), "1x1": (1, 1)}
    for (p, q), b in itertools.product(grids.values(), (16, 64, 128)):
        dag = build_dag(p, q, tree, batch)
        order, position = dag.priority(b)
        assert sorted(order) == list(range(len(dag.tasks)))
        for u in range(len(dag.tasks)):
            for v in dag.succ_ids(u):
                assert position[u] < position[v], (p, q, b, dag.tasks[u], dag.tasks[v])
