"""Task DAG for the *solve* phase: ``x = R^{-1} (Q^T b)``.

The paper's use case (Eqs. 2-3) needs two sweeps after factorization:

1. **Q^T application** — replay the reflector log over the RHS tile
   column(s): per panel ``k``, one UNMQR-like task on RHS tile-row ``k``
   followed by the chain of TSMQR-like pair tasks down the rows (the
   same dependency shape as the factorization's panel, restricted to
   one column).
2. **Triangular solve** — bottom-up over tile rows: a diagonal solve
   (TRSM) per row, each feeding substitution GEMMs into every row above.

Tasks reuse the factorization's :class:`~repro.dag.tasks.Task` type with
the RHS/solve column indices mapped past the matrix grid, so the same
simulator machinery prices them; kernel steps map onto UT (single-tile
ops: UNMQR apply, TRSM) and UE (pair ops: TSMQR apply, GEMM update).
"""

from __future__ import annotations

from typing import Iterator

from ..errors import DAGError
from .builder import TiledQRDag
from .tasks import Task, TaskKind


class SolveDag(TiledQRDag):
    """Dependency graph of one batched solve against a factorization.

    Parameters
    ----------
    grid_rows:
        Tile rows of the factored matrix (= RHS tile rows).
    rhs_tiles:
        Width of the right-hand-side block in tiles
        (``ceil(nrhs / b)``).

    Notes
    -----
    Column index convention: RHS tile column ``c`` is addressed as
    ``grid_rows + c`` so solve tasks never collide with matrix tiles.
    """

    def __init__(self, grid_rows: int, rhs_tiles: int = 1):
        if grid_rows < 1 or rhs_tiles < 1:
            raise DAGError(
                f"need at least a 1-tile system and 1 RHS tile, got "
                f"{grid_rows}/{rhs_tiles}"
            )
        self.grid_rows = grid_rows
        self.grid_cols = grid_rows + rhs_tiles  # for simulator owner lookups
        self.rhs_tiles = rhs_tiles
        from .trees import resolve_tree

        self.tree = resolve_tree("flat")
        self.elimination = self.tree.name
        self._freeze(self._emission())

    def _emission(self) -> Iterator[Task]:
        p = self.grid_rows
        # Phase 1: Q^T b — replay panels over each RHS tile column.
        for k in range(p):
            for c in range(self.rhs_tiles):
                col = p + c
                # UNMQR-like apply of the panel's GEQRT to RHS row k.
                yield Task(TaskKind.UNMQR, k, k, k, col)
                # TSMQR-like chain down the panel rows.
                for i in range(k + 1, p):
                    yield Task(TaskKind.TSMQR, k, i, k, col)
        # Phase 2: back-substitution, bottom-up.  Row i's TRSM waits for
        # every GEMM from rows below; we model TRSM as an UNMQR-step task
        # at panel index p (+i) and the substitution GEMMs as TSMQR-step
        # pair tasks.
        for i in range(p - 1, -1, -1):
            for c in range(self.rhs_tiles):
                col = p + c
                yield Task(TaskKind.UNMQR, p + i, i, i, col)
                for j in range(i - 1, -1, -1):
                    # Substitute x_i into row j's RHS.
                    yield Task(TaskKind.TSMQR, p + i, i, j, col)

    def accesses(self, task: Task):
        """Solve-phase data semantics.

        Back-substitution GEMMs (panel index >= grid_rows) only *read*
        the solved block ``x_i`` — unlike factorization pair-updates,
        which rewrite both tiles — so substitutions into different rows
        run in parallel.
        """
        reads, writes = super().accesses(task)
        if task.k >= self.grid_rows and task.kind is TaskKind.TSMQR:
            x_tile = ("t", task.row, task.col)
            writes = [w for w in writes if w != x_tile]
        return reads, writes


def build_solve_dag(grid_rows: int, rhs_tiles: int = 1) -> SolveDag:
    """Convenience constructor for :class:`SolveDag`."""
    return SolveDag(grid_rows, rhs_tiles)
