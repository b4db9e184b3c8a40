"""Edge-expansion baseline: the technique of [6] and where it fails.

Ballard-Demmel-Holtz-Schwartz [6] bound I/O through the *edge expansion*
of the decoding graph,

    h(G) = min_{S: |S| <= |V|/2}  |E(S, V-S)| / |S|,

which requires the decoding (and encoding) graphs of the base case to be
connected: a disconnected graph has ``h = 0`` and the technique certifies
nothing.  This module computes exact edge expansion for small base graphs
(exhaustive over subsets) and reports applicability — experiment E12
contrasts it with the path-routing technique on
``strassen (x) classical`` where ``h(decoder) = 0`` yet Theorem 1 still
holds.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.cdag.builder import build_base_graph
from repro.cdag.graph import Region

__all__ = [
    "edge_expansion",
    "decoder_edge_expansion",
    "expansion_technique_applicable",
]


def edge_expansion(
    adjacency: list[set[int]], max_vertices: int = 24
) -> float:
    """Exact edge expansion of an undirected graph by subset enumeration.

    ``adjacency[v]`` is the neighbour set of vertex ``v``.  Exponential in
    the vertex count — guarded by ``max_vertices``.
    """
    n = len(adjacency)
    if n > max_vertices:
        raise ValueError(
            f"exact edge expansion is exponential; {n} > {max_vertices}"
        )
    if n <= 1:
        return 0.0
    best = float("inf")
    vertices = list(range(n))
    for size in range(1, n // 2 + 1):
        for subset in combinations(vertices, size):
            sset = set(subset)
            cut = sum(
                1 for v in subset for u in adjacency[v] if u not in sset
            )
            best = min(best, cut / size)
            if best == 0.0:
                return 0.0
    return best


def decoder_edge_expansion(alg: BilinearAlgorithm, max_vertices: int = 24) -> float:
    """Edge expansion of the base graph's decoding graph (products +
    outputs, undirected support of W)."""
    g = build_base_graph(alg)
    dec = np.nonzero(g.region == Region.DEC)[0]
    index = {int(v): i for i, v in enumerate(dec)}
    adjacency: list[set[int]] = [set() for _ in dec]
    for v in dec.tolist():
        for u in g.predecessors(v).tolist():
            if u in index:
                adjacency[index[v]].add(index[u])
                adjacency[index[u]].add(index[v])
    return edge_expansion(adjacency, max_vertices=max_vertices)


def expansion_technique_applicable(alg: BilinearAlgorithm) -> dict:
    """Whether the edge-expansion technique of [6] applies to this base
    graph, and why not when it doesn't.

    Conditions per the paper's discussion: connected decoding graph,
    connected encoding graphs, and no multiple copying.  Returns a report
    dict with per-condition booleans and the overall verdict.
    """
    dec_connected = len(alg.decoder_components()) == 1
    enc_a_connected = len(alg.encoder_components("A")) == 1
    enc_b_connected = len(alg.encoder_components("B")) == 1
    no_multi_copy = not alg.has_multiple_copying()
    return {
        "decoder_connected": dec_connected,
        "encoder_a_connected": enc_a_connected,
        "encoder_b_connected": enc_b_connected,
        "no_multiple_copying": no_multi_copy,
        "applicable": dec_connected
        and enc_a_connected
        and enc_b_connected
        and no_multi_copy,
    }
