"""Tests for the extension subsystems: row-block simulation, autotuning,
trace tooling, scheduler policies, clusters and memory modelling."""

import json

import numpy as np
import pytest

from repro.cluster import ClusterSpec, NodeSpec, cluster_topology
from repro.core.memory import (
    OutOfCoreEstimate,
    check_memory,
    out_of_core_estimate,
    plan_footprint,
)
from repro.dag import build_dag
from repro.dag.tasks import Step
from repro.devices import paper_gtx580, paper_testbed
from repro.devices.autotune import (
    GRID,
    autotune_host_device,
    measure_host_kernels,
    tuned_tile_size,
)
from repro.errors import DeviceError, PlanError, SimulationError
from repro.sim.engine import DiscreteEventSimulator
from repro.sim.gantt import ascii_gantt, to_chrome_trace
from repro.sim.rowblock import assign_rows, simulate_rowblock_level


class TestRowBlockSimulation:
    def test_assign_rows_cyclic_covers_all(self, system):
        rows = assign_rows(system, list(system.device_ids), 40, 16, "cyclic")
        all_rows = sorted(r for rs in rows.values() for r in rs)
        assert all_rows == list(range(40))

    def test_assign_rows_contiguous_bands(self, system):
        rows = assign_rows(system, list(system.device_ids), 40, 16, "contiguous")
        for rs in rows.values():
            if rs:
                assert rs == list(range(rs[0], rs[-1] + 1))
        all_rows = sorted(r for rs in rows.values() for r in rs)
        assert all_rows == list(range(40))

    def test_faster_devices_get_more_rows(self, system):
        rows = assign_rows(system, list(system.device_ids), 80, 16, "cyclic")
        assert len(rows["gtx680-0"]) > len(rows["cpu-0"])

    def test_unknown_layout(self, system):
        with pytest.raises(SimulationError):
            assign_rows(system, list(system.device_ids), 10, 16, "diagonal")

    def test_simulation_runs_and_reports(self, system, topology):
        rep = simulate_rowblock_level(
            system, list(system.device_ids), 40, 40, 16, topology
        )
        assert rep.makespan > 0
        assert rep.comm_time > 0
        assert rep.meta["fidelity"] == "rowblock-level"

    def test_single_device_no_comm(self, system, topology):
        rep = simulate_rowblock_level(system, ["gtx580-0"], 20, 20, 16, topology)
        assert rep.comm_time == 0.0

    def test_row_tree_beats_column_at_large_n(self, system, topology, optimizer):
        """The panel tree parallelizes the chain the paper serializes."""
        from repro.sim.iteration import simulate_iteration_level

        g = 200
        plan = optimizer.plan(matrix_size=3200, num_devices=4)
        t_col = simulate_iteration_level(plan, g, g, system, topology).makespan
        t_row = simulate_rowblock_level(
            system, list(system.device_ids), g, g, 16, topology
        ).makespan
        assert t_row < t_col

    def test_invalid_inputs(self, system, topology):
        with pytest.raises(SimulationError):
            simulate_rowblock_level(system, [], 10, 10, 16, topology)
        with pytest.raises(SimulationError):
            simulate_rowblock_level(system, ["gtx580-0"], 0, 10, 16, topology)


class TestAutotune:
    def test_measure_host_kernels_structure(self):
        store = measure_host_kernels([8, 16])
        assert store.devices() == ["serial"]
        assert store.tile_sizes() == [8, 16]
        meas = store.step_measurements("serial")
        assert set(meas) == set(Step)
        for per_b in meas.values():
            assert set(per_b) == {8, 16}
            assert all(v > 0 for v in per_b.values())
        # One traced GRID x GRID flat-tree factorization per tile size.
        assert store.stats("GEQRT", tile_size=8).count == GRID
        assert store.stats("TSMQR", tile_size=16).count == sum(
            k * k for k in range(1, GRID)
        )

    def test_measure_rejects_tiny(self):
        with pytest.raises(DeviceError):
            measure_host_kernels([1])

    def test_autotuned_device_usable_in_planner(self):
        dev = autotune_host_device(tile_sizes=[8, 16, 32])
        from repro.core.optimizer import Optimizer
        from repro.devices.registry import make_system

        system = make_system("host", [dev])
        plan = Optimizer(system).plan(matrix_size=256)
        assert plan.main_device == dev.device_id

    def test_tuned_tile_size_returns_candidate(self, system):
        b = tuned_tile_size(system, 640, candidates=[8, 16, 32])
        assert b in (8, 16, 32)


class TestTraceTooling:
    @pytest.fixture
    def trace(self, system, topology, optimizer):
        plan = optimizer.plan(matrix_size=96, num_devices=3)
        dag = build_dag(6, 6)
        return DiscreteEventSimulator(system, topology).run(dag, plan)

    def test_ascii_gantt_rows(self, trace):
        out = ascii_gantt(trace, width=60)
        assert "makespan" in out
        assert "T=triangulation" in out
        # One row per device that executed something.
        devices = {r.device_id for r in trace.tasks}
        for d in devices:
            assert d in out

    def test_ascii_gantt_empty(self):
        from repro.sim.trace import ExecutionTrace

        assert "empty" in ascii_gantt(ExecutionTrace())

    def test_chrome_trace_valid_json(self, trace):
        doc = json.loads(to_chrome_trace(trace))
        events = doc["traceEvents"]
        assert len(events) == len(trace.tasks) + len(trace.transfers)
        kinds = {e["cat"] for e in events}
        assert "T" in kinds and "comm" in kinds
        for e in events:
            assert e["dur"] >= 0


class TestSchedulerPolicies:
    def test_all_policies_complete(self, system, topology, optimizer):
        plan = optimizer.plan(matrix_size=160, num_devices=3)
        dag = build_dag(10, 10)
        spans = {}
        for pol in DiscreteEventSimulator.POLICIES:
            trace = DiscreteEventSimulator(system, topology, policy=pol).run(dag, plan)
            assert len(trace.tasks) == len(dag)
            spans[pol] = trace.makespan
        # Same total work regardless of order.
        busies = {
            pol: None for pol in spans
        }
        assert max(spans.values()) < 2.0 * min(spans.values())

    def test_unknown_policy_rejected(self, system, topology):
        with pytest.raises(SimulationError):
            DiscreteEventSimulator(system, topology, policy="random")


class TestCluster:
    def make(self, n=2):
        base = paper_testbed()
        return ClusterSpec(
            name="c", nodes=tuple(
                NodeSpec(name=f"n{i}", devices=base.devices) for i in range(n)
            )
        )

    def test_flatten_namespaces_ids(self):
        sys_ = self.make(2).flatten()
        assert "n0/gtx580-0" in sys_.device_ids
        assert "n1/gtx580-0" in sys_.device_ids
        assert len(sys_) == 8

    def test_node_of(self):
        c = self.make(2)
        assert c.node_of("n1/cpu-0") == "n1"
        with pytest.raises(DeviceError):
            c.node_of("cpu-0")
        with pytest.raises(DeviceError):
            c.node_of("nope/cpu-0")

    def test_duplicate_node_names_rejected(self):
        base = paper_testbed()
        with pytest.raises(DeviceError):
            ClusterSpec(
                name="bad",
                nodes=(
                    NodeSpec(name="n", devices=base.devices),
                    NodeSpec(name="n", devices=base.devices),
                ),
            )

    def test_topology_hierarchy(self):
        c = self.make(2)
        top = cluster_topology(c)
        intra = top.transfer_time("n0/cpu-0", "n0/gtx580-0", 1e6)
        inter = top.transfer_time("n0/cpu-0", "n1/cpu-0", 1e6)
        inter_gpu = top.transfer_time("n0/gtx580-0", "n1/gtx680-0", 1e6)
        assert intra < inter < inter_gpu

    def test_optimizer_runs_on_cluster(self):
        c = self.make(2)
        sys_ = c.flatten()
        from repro.core.optimizer import Optimizer

        opt = Optimizer(sys_, cluster_topology(c))
        plan = opt.plan(matrix_size=640)
        assert plan.main_device in sys_.device_ids

    def test_total_cores(self):
        assert self.make(3).total_cores == 3 * 3588


class TestMemoryModel:
    def test_footprint_scales_with_columns(self, optimizer):
        plan = optimizer.plan(matrix_size=1600, num_devices=4)
        fp_small = plan_footprint(plan, 100, 100)
        fp_big = plan_footprint(plan, 200, 200)
        for d in plan.participants:
            assert fp_big[d] > fp_small[d]

    def test_total_at_least_matrix_bytes(self, optimizer):
        plan = optimizer.plan(matrix_size=1600, num_devices=4)
        g = 100
        total = sum(plan_footprint(plan, g, g).values())
        assert total >= g * g * 16 * 16 * 4

    def test_check_memory_feasible_small(self, optimizer):
        plan = optimizer.plan(matrix_size=1600)
        rep = check_memory(plan, 100, 100)
        assert rep.feasible
        assert 0.0 < max(rep.utilization().values()) < 1.0

    def test_check_memory_infeasible_huge(self, optimizer):
        plan = optimizer.plan(matrix_size=64000)
        rep = check_memory(plan, 4000, 4000)
        assert not rep.feasible
        assert rep.tightest_device() is not None

    def test_out_of_core_single_pass_when_fits(self, optimizer, topology):
        plan = optimizer.plan(matrix_size=1600)
        est = out_of_core_estimate(plan, 100, 100, 1.0, topology)
        assert est.passes == 1
        assert est.makespan == 1.0
        assert est.extra_bytes == 0.0

    def test_out_of_core_multi_pass_overhead(self, optimizer, topology):
        plan = optimizer.plan(matrix_size=64000)
        est = out_of_core_estimate(plan, 4000, 4000, 100.0, topology)
        assert est.passes > 1
        assert est.makespan > 100.0
        assert est.extra_bytes > 0
        assert est.overhead > 0

    def test_invalid_grid(self, optimizer):
        plan = optimizer.plan(matrix_size=160)
        with pytest.raises(PlanError):
            plan_footprint(plan, 0, 10)


class TestRowBlockProperties:
    """Hypothesis fuzz of the row-block simulator."""

    def test_fuzz_invariants(self, system, topology):
        from hypothesis import given, settings, strategies as st

        @given(
            st.integers(2, 30),
            st.integers(2, 20),
            st.sampled_from(["cyclic", "contiguous"]),
            st.integers(1, 4),
        )
        @settings(max_examples=25, deadline=None)
        def check(g_rows, g_cols, layout, ndev):
            parts = list(system.device_ids)[:ndev]
            rep = simulate_rowblock_level(
                system, parts, g_rows, g_cols, 16, topology, layout=layout
            )
            assert rep.makespan > 0
            assert rep.makespan >= max(rep.compute_busy.values()) - 1e-12
            assert rep.comm_time >= 0
            assert set(rep.compute_busy) <= set(parts)

        check()
