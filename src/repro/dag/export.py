"""Export the tiled-QR DAG to networkx / Graphviz (paper Fig. 3)."""

from __future__ import annotations

import networkx as nx

from .builder import TiledQRDag


def to_networkx(dag: TiledQRDag) -> "nx.DiGraph":
    """Convert to a :class:`networkx.DiGraph`.

    Node attributes: ``kind``, ``step``, ``k``, ``row``, ``row2``, ``col``
    and a display ``label``.
    """
    g = nx.DiGraph()
    for t in dag.tasks:
        g.add_node(
            t,
            kind=t.kind.value,
            step=t.step.value,
            k=t.k,
            row=t.row,
            row2=t.row2,
            col=t.col,
            label=t.label(),
        )
    tasks = dag.tasks
    for i, t in enumerate(tasks):
        for d in dag.pred_ids(i):
            g.add_edge(tasks[d], t)
    return g


def to_dot(dag: TiledQRDag) -> str:
    """Render a Graphviz ``dot`` description (Fig. 3-style, T/E/UT/UE).

    Small grids only — intended for documentation and examples.
    """
    colors = {"T": "#e15759", "E": "#f28e2b", "UT": "#4e79a7", "UE": "#76b7b2"}
    lines = ["digraph tiledqr {", "  rankdir=TB;", "  node [style=filled, fontname=monospace];"]
    for i, t in enumerate(dag.tasks):
        lines.append(
            f'  t{i} [label="{t.label()}", fillcolor="{colors[t.step.value]}"];'
        )
    for i in range(len(dag.tasks)):
        for d in dag.pred_ids(i):
            lines.append(f"  t{d} -> t{i};")
    lines.append("}")
    return "\n".join(lines)
