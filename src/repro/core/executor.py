"""High-level facade: plan, simulate, and numerically execute tiled QR.

:class:`TiledQR` is the library's main entry point for the paper's
workflow: give it a system and a matrix size and it plans the
distribution (Sec. IV), predicts time (Alg. 3), simulates execution
(task-level for small grids, iteration-level for large ones), and — when
handed actual matrix data — runs the real NumPy kernels under the same
plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.topology import Topology, pcie_star
from ..config import DEFAULT_TILE_SIZE, ELEMENT_SIZE_BYTES
from ..dag import build_dag
from ..devices.registry import SystemSpec
from ..errors import PlanError
from ..runtime.factorization import TiledQRFactorization
from ..runtime.serial import SerialRuntime
from ..sim.engine import simulate_task_level
from ..sim.iteration import simulate_iteration_level
from ..sim.trace import SimulationReport
from .optimizer import Optimizer
from .plan import DistributionPlan

#: Largest tile grid the task-level simulator is used for by default;
#: beyond this the iteration-level model takes over (see repro.sim).
TASK_LEVEL_GRID_LIMIT = 72


@dataclass
class TiledQRRun:
    """Outcome of a planned (and possibly executed) tiled QR."""

    plan: DistributionPlan
    report: SimulationReport
    factorization: TiledQRFactorization | None = None

    @property
    def simulated_seconds(self) -> float:
        return self.report.makespan


class TiledQR:
    """Plan + simulate + execute tiled QR on a heterogeneous system.

    Parameters
    ----------
    system:
        Device models (e.g. :func:`repro.devices.paper_testbed`).
    topology:
        Link models; defaults to the paper's PCIe star.
    elimination:
        Default within-panel elimination tree — any registered name or
        alias from :mod:`repro.dag.trees` (``"TS"``/``"flat"`` is the
        paper's order).  ``factorize(tree=...)`` overrides per call,
        with ``"auto"`` delegating to the optimizer's simulated tree
        selection.
    element_size:
        Bytes per element for the communication model.
    """

    def __init__(
        self,
        system: SystemSpec,
        topology: Topology | None = None,
        elimination: str = "TS",
        element_size: int = ELEMENT_SIZE_BYTES,
    ):
        self.system = system
        self.topology = topology if topology is not None else pcie_star(system.devices)
        self.elimination = elimination
        self.element_size = element_size
        self.optimizer = Optimizer(system, self.topology, element_size)

    # -- planning ---------------------------------------------------------

    def plan(self, matrix_size: int, tile_size: int = DEFAULT_TILE_SIZE, **overrides) -> DistributionPlan:
        """Optimized plan for an ``n x n`` matrix (see Optimizer.plan)."""
        return self.optimizer.plan(matrix_size=matrix_size, tile_size=tile_size, **overrides)

    # -- simulation ---------------------------------------------------------

    def simulate(
        self,
        matrix_size: int | tuple[int, int],
        tile_size: int = DEFAULT_TILE_SIZE,
        plan: DistributionPlan | None = None,
        fidelity: str = "auto",
        **overrides,
    ) -> TiledQRRun:
        """Predict wall-clock behaviour without touching matrix data.

        Parameters
        ----------
        matrix_size:
            Square edge ``n`` or a rectangular ``(m, n)`` shape with
            ``m >= n`` (tall least-squares panels).
        fidelity:
            ``"task"`` forces the discrete-event simulator, ``"iteration"``
            the panel-level model, ``"auto"`` picks by grid size.
        """
        if isinstance(matrix_size, tuple):
            rows, cols = matrix_size
        else:
            rows = cols = matrix_size
        if rows < 1 or cols < 1:
            raise PlanError(f"matrix size must be >= 1, got {matrix_size}")
        if rows < cols:
            raise PlanError(f"QR requires m >= n, got shape {matrix_size}")
        if plan is not None:
            p = plan
        else:
            grid_rows = -(-rows // tile_size)
            grid_cols = -(-cols // tile_size)
            p = self.optimizer.plan(
                grid_rows=grid_rows, grid_cols=grid_cols,
                tile_size=tile_size, **overrides,
            )
        grid_rows = -(-rows // p.tile_size)
        grid_cols = -(-cols // p.tile_size)
        if fidelity not in ("auto", "task", "iteration"):
            raise PlanError(f"unknown fidelity {fidelity!r}")
        use_task = fidelity == "task" or (
            fidelity == "auto" and max(grid_rows, grid_cols) <= TASK_LEVEL_GRID_LIMIT
        )
        if use_task:
            dag = build_dag(grid_rows, grid_cols, self.elimination)
            trace = simulate_task_level(dag, p, self.system, self.topology, self.element_size)
            report = trace.report(grid=(grid_rows, grid_cols), plan=p.describe())
            report.meta["trace"] = trace
        else:
            report = simulate_iteration_level(
                p, grid_rows, grid_cols, self.system, self.topology, self.element_size
            )
        return TiledQRRun(plan=p, report=report)

    # -- numeric execution -------------------------------------------------

    def factorize(
        self,
        a: np.ndarray,
        tile_size: int = DEFAULT_TILE_SIZE,
        plan: DistributionPlan | None = None,
        simulate: bool = True,
        coexecute: bool = False,
        tracer=None,
        batch_updates: bool = False,
        tree: str | None = None,
    ) -> TiledQRRun:
        """Numerically factorize ``a`` under an optimized plan.

        The kernels run for real (NumPy); the simulated report describes
        what the same schedule would cost on the modelled hardware.

        Parameters
        ----------
        coexecute:
            Run the numeric kernels *inside* the discrete-event
            simulator — every kernel executes at its simulated
            completion event, so the factorization provably follows the
            reported schedule (small grids only; implies ``simulate``).
        tracer:
            Optional :class:`repro.observability.Tracer` recording the
            real kernel execution; the resulting measured trace is also
            attached to ``run.report.meta["real_trace"]``, alongside the
            simulated ``meta["trace"]`` — the pair :func:`
            repro.observability.diff_traces` consumes.
        batch_updates:
            Execute trailing-matrix updates as coarsened row-panel
            batches (ignored under ``coexecute``, which follows the
            simulator's per-tile schedule).  See ``docs/PERFORMANCE.md``.
        tree:
            Within-panel elimination tree (see :mod:`repro.dag.trees`):
            a registered name/alias, or ``"auto"`` to let the optimizer
            simulate the candidates against the plan and pick the
            fastest (recorded as the audit's ``elimination_tree``
            stage).  ``None`` keeps the instance's ``elimination``.
        """
        arr = np.asarray(a)
        if arr.ndim != 2:
            raise PlanError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        n = max(arr.shape)
        p = plan if plan is not None else self.plan(n, tile_size)
        elimination = self.elimination
        if tree is not None:
            g_rows = -(-arr.shape[0] // p.tile_size)
            g_cols = -(-arr.shape[1] // p.tile_size)
            audit = p.notes.get("audit") if isinstance(p.notes, dict) else None
            elimination = self.optimizer.select_tree(
                tree, g_rows, g_cols, p.tile_size, p, audit=audit
            )
            if isinstance(p.notes, dict):
                p.notes["tree"] = elimination
        if coexecute:
            from ..dag import build_dag
            from ..sim.engine import DiscreteEventSimulator
            from ..tiles import TiledMatrix

            if arr.shape[0] < arr.shape[1]:
                raise PlanError(f"QR requires m >= n, got shape {arr.shape}")
            tiled = TiledMatrix.from_dense(arr, p.tile_size)
            dag = build_dag(tiled.grid_rows, tiled.grid_cols, elimination)
            sim = DiscreteEventSimulator(self.system, self.topology, self.element_size)
            trace = sim.run(dag, p, tiles=tiled)
            fact = TiledQRFactorization(
                r=tiled, log=trace.numeric_log, shape=arr.shape
            )
            report = trace.report(grid=tiled.grid_shape, plan=p.describe())
            report.meta["trace"] = trace
            return TiledQRRun(plan=p, report=report, factorization=fact)
        fact = SerialRuntime(
            elimination, tracer=tracer, batch_updates=batch_updates
        ).factorize(arr, p.tile_size)
        if simulate:
            run = self.simulate(n, p.tile_size, plan=p)
            report = run.report
        else:
            report = SimulationReport(makespan=0.0, compute_busy={}, comm_time=0.0)
        if tracer is not None and tracer.enabled:
            report.meta["real_trace"] = tracer.to_trace()
        return TiledQRRun(plan=p, report=report, factorization=fact)
