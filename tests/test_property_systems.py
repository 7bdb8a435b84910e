"""Property-based tests over *random device systems*.

The paper's policies must behave sensibly for any physically-plausible
system, not just the Table II testbed.  Hypothesis generates systems
(device counts, slots, rates) and these tests assert the pipeline's
invariants hold across them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.topology import pcie_star
from repro.core.optimizer import Optimizer
from repro.dag.tasks import Step
from repro.devices.model import DeviceKind, DeviceSpec, KernelTimingModel
from repro.devices.registry import SystemSpec
from repro.sim.iteration import simulate_iteration_level


@st.composite
def device_specs(draw, device_id: str = "dev"):
    kind = draw(st.sampled_from([DeviceKind.CPU, DeviceKind.GPU]))
    slots = draw(st.integers(1, 64))
    base_rate = draw(st.floats(0.005, 5.0))  # GF
    panel_penalty = draw(st.floats(1.5, 50.0))
    overhead = draw(st.floats(0.0, 100e-6))
    timing = KernelTimingModel(
        overheads_s={
            Step.T: overhead, Step.E: overhead,
            Step.UT: overhead / 10.0, Step.UE: overhead / 10.0,
        },
        rates_flops={
            Step.T: base_rate * 1e9 / panel_penalty,
            Step.E: base_rate * 1e9 / panel_penalty,
            Step.UT: base_rate * 1e9,
            Step.UE: base_rate * 1e9,
        },
    )
    return DeviceSpec(
        device_id=device_id,
        name=f"random-{kind.value}",
        kind=kind,
        cores=draw(st.integers(1, 2048)),
        slots=slots,
        timing=timing,
    )


@st.composite
def systems(draw, max_devices: int = 4):
    n = draw(st.integers(1, max_devices))
    devices = tuple(
        draw(device_specs(device_id=f"d{i}")) for i in range(n)
    )
    return SystemSpec(name="hypothesis", devices=devices)


class TestPlannerOnRandomSystems:
    @given(systems(), st.integers(3, 25))
    @settings(max_examples=40, deadline=None)
    def test_plan_always_valid(self, system, grid):
        opt = Optimizer(system, pcie_star(system.devices))
        plan = opt.plan(grid_rows=grid, grid_cols=grid)
        assert plan.main_device in system.device_ids
        assert 1 <= plan.num_devices <= len(system)
        assert plan.participants[0] == plan.main_device
        # Every column has a valid owner.
        owners = plan.owners(grid)
        assert all(o in plan.participants for o in owners)
        assert owners[0] == plan.main_device

    @given(systems(), st.integers(3, 20))
    @settings(max_examples=30, deadline=None)
    def test_simulation_invariants(self, system, grid):
        top = pcie_star(system.devices)
        opt = Optimizer(system, top)
        plan = opt.plan(grid_rows=grid, grid_cols=grid)
        rep = simulate_iteration_level(plan, grid, grid, system, top)
        assert rep.makespan > 0
        assert rep.makespan >= max(rep.compute_busy.values()) - 1e-12
        assert rep.comm_time >= 0
        # Work conservation: total busy equals the modelled task work.
        total_busy = sum(rep.compute_busy.values())
        assert total_busy > 0

    @given(systems(max_devices=3), st.integers(4, 16))
    @settings(max_examples=25, deadline=None)
    def test_predictor_table_shape(self, system, grid):
        from repro.core.device_count import predicted_times, select_num_devices

        top = pcie_star(system.devices)
        main = system.devices[0].device_id
        table = predicted_times(system, main, grid, grid, 16, top)
        assert len(table) == len(system)
        assert all(r.total > 0 for r in table)
        comms = [r.t_comm for r in table]
        # A single device never communicates; more devices never reach
        # zero (strict monotonicity can break when adding a device
        # relocates the next-panel column to a cheaper link).
        assert comms[0] == 0.0
        assert all(c >= 0.0 for c in comms)
        if len(comms) > 1:
            assert comms[-1] > 0.0
        p, _ = select_num_devices(system, main, grid, grid, 16, top)
        assert 1 <= p <= len(system)

    @given(systems(max_devices=4), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_guide_array_covers_participants_with_work(self, system, grid):
        from repro.core.distribution import guide_for_participants

        ids = list(system.device_ids)
        ratio, guide = guide_for_participants(
            system, ids, ids[0], grid, grid, 16
        )
        assert set(guide) <= set(ids)
        assert sum(ratio.values()) >= 1
        for d, weight in ratio.items():
            assert (weight > 0) == (d in guide)


class TestDESFuzz:
    """Fuzz the discrete-event simulator over random grids and plans;
    every run must satisfy all conservation laws."""

    @given(
        st.integers(2, 9),
        st.integers(2, 9),
        st.integers(1, 4),
        st.sampled_from(["TS", "TT"]),
        st.sampled_from(["critical-path", "fifo", "column-major", "reverse"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_laws_hold(self, p, q, ndev, elim, policy):
        from repro.comm.topology import pcie_star
        from repro.dag import build_dag
        from repro.devices.registry import paper_testbed
        from repro.sim.engine import DiscreteEventSimulator
        from repro.sim.validation import validate_trace

        system = paper_testbed()
        top = pcie_star(system.devices)
        opt = Optimizer(system, top)
        plan = opt.plan(grid_rows=p, grid_cols=q, num_devices=ndev)
        dag = build_dag(p, q, elim)
        trace = DiscreteEventSimulator(system, top, policy=policy).run(dag, plan)
        validate_trace(trace, dag, plan, system)
        # Busy time equals the sum of modelled kernel durations.
        total = sum(
            system.device(r.device_id).time(r.task.step, 16) for r in trace.tasks
        )
        import pytest as _pytest

        assert sum(trace.compute_busy().values()) == _pytest.approx(total)

    @given(st.integers(2, 8), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_solve_dag_fuzz(self, g, rhs):
        from repro.comm.topology import pcie_star
        from repro.dag.solve import build_solve_dag
        from repro.devices.registry import paper_testbed
        from repro.sim.engine import simulate_task_level
        from repro.sim.validation import validate_dependencies, validate_ports

        system = paper_testbed()
        top = pcie_star(system.devices)
        opt = Optimizer(system, top)
        plan = opt.plan(grid_rows=g, grid_cols=g, num_devices=3)
        dag = build_solve_dag(g, rhs)
        dag.validate()
        trace = simulate_task_level(dag, plan, system, top)
        validate_dependencies(trace, dag)
        validate_ports(trace)
