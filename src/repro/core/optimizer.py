"""End-to-end planning pipeline (paper Sec. IV).

Chains the three policies — main-device selection, device-count
optimization, guide-array distribution — into a
:class:`repro.core.plan.DistributionPlan` for a given system and matrix.
"""

from __future__ import annotations

import logging

from ..comm.topology import Topology, pcie_star
from ..config import DEFAULT_TILE_SIZE, ELEMENT_SIZE_BYTES
from ..devices.registry import SystemSpec
from ..errors import PlanError
from ..observability.decisions import DecisionAudit
from .device_count import order_by_update_speed, select_num_devices
from .distribution import guide_for_participants
from .main_device import select_main_device
from .plan import DistributionPlan

logger = logging.getLogger("repro.optimizer")


class Optimizer:
    """Builds optimized distribution plans for a heterogeneous system.

    Parameters
    ----------
    system:
        The available devices.
    topology:
        Interconnect; defaults to the paper's PCIe star over ``system``.
    element_size:
        Bytes per matrix element for the Eq. 11 communication model.
    profile:
        Optional :class:`~repro.observability.profile.ProfileStore` of
        measured kernel timings; :meth:`select_tree` weighs tasks by it.
    """

    def __init__(
        self,
        system: SystemSpec,
        topology: Topology | None = None,
        element_size: int = ELEMENT_SIZE_BYTES,
        main_updates: str = "residual",
        profile=None,
    ):
        self.system = system
        self.topology = topology if topology is not None else pcie_star(system.devices)
        self.element_size = element_size
        self.main_updates = main_updates
        self.profile = profile

    # -- pipeline stages --------------------------------------------------

    def plan(
        self,
        matrix_size: int | None = None,
        tile_size: int = DEFAULT_TILE_SIZE,
        grid_rows: int | None = None,
        grid_cols: int | None = None,
        main_device: str | None = None,
        num_devices: int | None = None,
        panel_follows_column: bool = False,
        audit: DecisionAudit | None = None,
        tree: str | None = None,
    ) -> DistributionPlan:
        """Produce the optimized plan for an ``n x n`` matrix.

        Parameters
        ----------
        matrix_size:
            Square matrix edge ``n``; alternatively give ``grid_rows`` /
            ``grid_cols`` directly.
        tile_size:
            Tile edge ``b``.
        main_device:
            Override Alg. 2 (used by the Fig. 9 baselines).
        num_devices:
            Override Alg. 3 (used by the Fig. 6 / Table III sweeps).
        panel_follows_column:
            Build a "no specific main device" plan (Fig. 9's None case).
        audit:
            Decision audit threaded through all three stages; one is
            created when omitted.  Lands in ``plan.notes["audit"]`` —
            render it with
            :func:`repro.observability.decisions.explain_plan`.
        tree:
            Elimination-tree selection (see :mod:`repro.dag.trees`):
            ``"auto"`` simulates every registered tree against this plan
            and picks the fastest; a tree name or alias forces the
            choice (still recording what ``auto`` would have picked).
            ``None`` skips the stage.  The chosen canonical name lands
            in ``plan.notes["tree"]`` and the comparison in the audit's
            ``elimination_tree`` record.

        Returns
        -------
        DistributionPlan
            With ``notes["predicted"]`` holding the Alg. 3 table and
            ``notes["audit"]`` the decision audit.
        """
        if grid_rows is None or grid_cols is None:
            if matrix_size is None:
                raise PlanError("give matrix_size or an explicit grid shape")
            if matrix_size < 1:
                raise PlanError(f"matrix size must be >= 1, got {matrix_size}")
            grid_rows = grid_cols = -(-matrix_size // tile_size)

        audit = audit if audit is not None else DecisionAudit()
        main = main_device or select_main_device(
            self.system, grid_rows, grid_cols, tile_size, audit=audit
        )
        if main not in self.system.device_ids:
            raise PlanError(f"unknown main device {main!r}")

        p_opt, table = select_num_devices(
            self.system, main, grid_rows, grid_cols, tile_size,
            self.topology, self.element_size, main_updates=self.main_updates,
            audit=audit,
        )
        p = num_devices if num_devices is not None else p_opt
        if not 1 <= p <= len(self.system):
            raise PlanError(f"num_devices must be in [1, {len(self.system)}], got {p}")

        ordered = order_by_update_speed(self.system, main, tile_size)
        participants = tuple(ordered[:p])
        ratio_map, guide_list = guide_for_participants(
            self.system, participants, main, grid_rows, grid_cols, tile_size,
            main_updates=self.main_updates, audit=audit,
        )
        guide = tuple(guide_list)
        ratio = [ratio_map[d] for d in participants]
        logger.debug(
            "plan %dx%d b=%d: main=%s (Alg.2%s), p=%d of %d (Alg.3 "
            "optimum %d), ratio=%s guide_len=%d",
            grid_rows, grid_cols, tile_size, main,
            " override" if main_device else "", p, len(self.system), p_opt,
            ratio, len(guide),
        )
        plan = DistributionPlan(
            system=self.system,
            main_device=main,
            participants=participants,
            guide_array=guide,
            tile_size=tile_size,
            panel_follows_column=panel_follows_column,
            notes={
                "predicted": table,
                "optimal_num_devices": p_opt,
                "ratio": ratio,
                "grid": (grid_rows, grid_cols),
                "audit": audit,
            },
        )
        if tree is not None:
            plan.notes["tree"] = self.select_tree(
                tree, grid_rows, grid_cols, tile_size, plan, audit=audit
            )
        return plan

    def select_tree(
        self,
        tree: str,
        grid_rows: int,
        grid_cols: int,
        tile_size: int,
        plan: DistributionPlan,
        audit: DecisionAudit | None = None,
    ) -> str:
        """Choose the within-panel elimination tree for a planned run.

        Every registered tree (:mod:`repro.dag.trees`) is scored against
        the plan: on grids the task-level simulator handles, by the
        simulated makespan of that tree's DAG on the modelled system;
        on larger grids, by the flop-weighted critical path (the same
        weight model the runtimes' priority schedulers use, fed by this
        optimizer's profile when it has measurements).  ``tree="auto"``
        returns the argmin; an explicit name or alias forces the choice
        but the comparison is still recorded, with what ``auto`` would
        have picked in the record's notes.  The decision lands in the
        audit as an ``elimination_tree`` (STAGE_TREE) record.
        """
        from ..dag import build_dag
        from ..dag.analysis import task_weight_model
        from ..dag.trees import AUTO, canonical_tree, tree_names
        from ..observability.decisions import (
            STAGE_TREE,
            Candidate,
            DecisionRecord,
            margin_over_runner_up,
        )
        from .executor import TASK_LEVEL_GRID_LIMIT

        forced = None if str(tree).lower() == AUTO else canonical_tree(tree)
        simulate = max(grid_rows, grid_cols) <= TASK_LEVEL_GRID_LIMIT
        weight = task_weight_model(tile_size, profile=self.profile)
        scored: dict[str, float] = {}
        metrics: dict[str, dict] = {}
        for name in tree_names():
            dag = build_dag(grid_rows, grid_cols, name, batch_updates=False)
            cp = max(dag.bottom_levels(weight), default=0.0)
            metrics[name] = {
                "weighted_critical_path": cp,
                "tasks": float(len(dag.tasks)),
            }
            if simulate:
                from ..sim.engine import DiscreteEventSimulator

                # panel_unit=False: the runtimes dispatch panel kernels
                # on the shared worker/slot pool (no dedicated panel
                # engine), and a capacity-1 panel engine would serialize
                # every within-panel merge — making all TT-shaped trees
                # simulate identically regardless of depth.
                sim = DiscreteEventSimulator(
                    self.system, self.topology, self.element_size,
                    panel_unit=False,
                )
                makespan = sim.run(dag, plan).makespan
                metrics[name]["simulated_makespan"] = makespan
                scored[name] = makespan
            else:
                scored[name] = cp
        best = min(scored, key=lambda n: scored[n])  # ties: registration order
        chosen = forced if forced is not None else best
        notes = {
            "mode": "auto" if forced is None else "override",
            "fidelity": "task-sim" if simulate else "critical-path",
        }
        if forced is not None:
            notes["auto_choice"] = best
        rec = DecisionRecord(
            stage=STAGE_TREE,
            chosen=chosen,
            metric="simulated_makespan" if simulate else "weighted_critical_path",
            margin=margin_over_runner_up(list(scored.values()), scored[best]),
            inputs={"grid": f"{grid_rows}x{grid_cols}", "tile_size": tile_size},
            candidates=[
                Candidate(name=n, chosen=(n == chosen), metrics=metrics[n])
                for n in tree_names()
            ],
            notes=notes,
        )
        if audit is not None:
            audit.record(rec)
        logger.debug(
            "tree selection %dx%d b=%d: chose %s (%s, best=%s)",
            grid_rows, grid_cols, tile_size, chosen, notes["fidelity"], best,
        )
        return chosen
