"""Rendering of small CDAGs: Graphviz DOT and rank-by-rank ASCII.

Reproduces the *structural* content of the paper's Figures 1-3 (base
graphs, meta-vertices, encoder zig-zag paths) in machine-checkable form;
the outputs are used by examples and by ``python -m repro render``.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, Region

__all__ = ["to_dot", "ascii_ranks", "describe_vertex"]

_REGION_COLORS = {
    Region.ENC_A: "lightblue",
    Region.ENC_B: "lightgreen",
    Region.DEC: "lightsalmon",
}


def describe_vertex(cdag: CDAG, v: int) -> str:
    """Human-readable vertex label, e.g. ``enc_A[r1](m=3|e=2)``."""
    region, local_rank, digits = cdag.vertex_digits(v)
    if region == Region.DEC:
        n_m = cdag.r - local_rank
    else:
        n_m = local_rank
    m_digits = digits[:n_m]
    e_digits = digits[n_m:]
    m_str = ",".join(str(d) for d in m_digits) or "-"
    e_str = ",".join(str(d) for d in e_digits) or "-"
    return f"{Region.NAMES[region]}[r{local_rank}](m={m_str}|e={e_str})"


def to_dot(cdag: CDAG, max_vertices: int = 2000) -> str:
    """Graphviz DOT source for the CDAG (bottom-to-top, paper style).

    Raises ``ValueError`` for graphs above ``max_vertices`` — render base
    graphs and small ``G_r`` only.
    """
    if cdag.n_vertices > max_vertices:
        raise ValueError(
            f"graph has {cdag.n_vertices} vertices; refusing to render "
            f"more than {max_vertices}"
        )
    lines = [
        "digraph cdag {",
        "  rankdir=BT;",
        "  node [style=filled, shape=circle, fontsize=9];",
    ]
    for v in range(cdag.n_vertices):
        region = int(cdag.region[v])
        color = _REGION_COLORS[region]
        shape = "doublecircle" if cdag.is_copy[v] else "circle"
        lines.append(
            f'  v{v} [label="{describe_vertex(cdag, v)}", '
            f'fillcolor={color}, shape={shape}];'
        )
    # Same-rank grouping so Graphviz draws paper-style layers.
    for rank in range(2 * cdag.r + 2):
        members = np.nonzero(cdag.rank == rank)[0]
        if len(members):
            ids = "; ".join(f"v{int(v)}" for v in members)
            lines.append(f"  {{ rank=same; {ids} }}")
    for child, parent in cdag.iter_edges():
        lines.append(f"  v{child} -> v{parent};")
    lines.append("}")
    return "\n".join(lines)


def ascii_ranks(cdag: CDAG, max_width: int = 100) -> str:
    """Rank-by-rank ASCII summary (top rank first, paper orientation).

    Each line lists the rank, the region(s), the vertex count, and — for
    narrow ranks — the vertex labels themselves.
    """
    lines = []
    for rank in range(2 * cdag.r + 1, -1, -1):
        members = np.nonzero(cdag.rank == rank)[0]
        regions = sorted(
            {Region.NAMES[int(cdag.region[v])] for v in members}
        )
        head = f"rank {rank:>2} [{'+'.join(regions):<12}] n={len(members):<6}"
        labels = " ".join(describe_vertex(cdag, int(v)) for v in members)
        if len(labels) <= max_width - len(head):
            lines.append(head + labels)
        else:
            lines.append(head + f"({labels[:max_width - len(head) - 4]}...)")
    return "\n".join(lines)
