"""The whole-graph dominator cut and the per-vertex cut queries, kept
verbatim as the golden reference for equivalence tests.

:func:`reference_minimum_dominator_size` builds the vertex-split graph
of the *whole* CDAG (``2n + 2`` nodes) one ``add_edge`` at a time and
solves it with the original recursive Dinic, inlined below as
:class:`RefDinic` so changes to :mod:`repro.utils.flow` cannot mask a
regression.  :func:`reference_minimum_set` and
:func:`reference_boundary_sets` are the per-vertex Python loops the
CSR-array versions replaced.  Do not optimise this file — its value is
that it stays a line-by-line transcription of the original semantics.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class RefDinic:
    """The original Dinic: list adjacency, recursive augmenting DFS."""

    INF = 1 << 60

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        # Edge arrays: to[i], cap[i]; reverse edge is i ^ 1.
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge; returns its index (for cut queries)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("edge endpoint out of range")
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        index = len(self.to)
        self.head[u].append(index)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        return index

    def max_flow(self, source: int, sink: int) -> int:
        if source == sink:
            raise ValueError("source and sink must differ")
        flow = 0
        while True:
            level = self._bfs(source, sink)
            if level is None:
                return flow
            iters = [0] * self.n
            while True:
                pushed = self._dfs(source, sink, RefDinic.INF, level, iters)
                if not pushed:
                    break
                flow += pushed

    def _bfs(self, source: int, sink: int):
        level = [-1] * self.n
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for index in self.head[u]:
                v = self.to[index]
                if self.cap[index] > 0 and level[v] == -1:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] != -1 else None

    def _dfs(self, u, sink, limit, level, iters):
        if u == sink:
            return limit
        while iters[u] < len(self.head[u]):
            index = self.head[u][iters[u]]
            v = self.to[index]
            if self.cap[index] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(
                    v, sink, min(limit, self.cap[index]), level, iters
                )
                if pushed:
                    self.cap[index] -= pushed
                    self.cap[index ^ 1] += pushed
                    return pushed
            iters[u] += 1
        return 0


def reference_minimum_dominator_size(cdag, targets) -> int:
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) == 0:
        return 0
    n = cdag.n_vertices
    # Node ids: in(v) = 2v, out(v) = 2v + 1; source = 2n; sink = 2n + 1.
    dinic = RefDinic(2 * n + 2)
    source, sink = 2 * n, 2 * n + 1
    for v in range(n):
        dinic.add_edge(2 * v, 2 * v + 1, 1)
    for child, parent in zip(
        cdag.pred_indices.tolist(),
        np.repeat(np.arange(n), np.diff(cdag.pred_indptr)).tolist(),
    ):
        dinic.add_edge(2 * child + 1, 2 * parent, RefDinic.INF)
    inputs = np.nonzero(cdag.in_degree() == 0)[0]
    for v in inputs.tolist():
        dinic.add_edge(source, 2 * v, RefDinic.INF)
    for v in targets.tolist():
        dinic.add_edge(2 * v + 1, sink, RefDinic.INF)
    return dinic.max_flow(source, sink)


def reference_minimum_set(cdag, part) -> np.ndarray:
    part = np.asarray(part, dtype=np.int64)
    inside = np.zeros(cdag.n_vertices, dtype=bool)
    inside[part] = True
    out = [
        int(v)
        for v in part.tolist()
        if not any(inside[s] for s in cdag.successors(v))
    ]
    return np.array(sorted(out), dtype=np.int64)


def reference_boundary_sets(cdag, segment) -> tuple[np.ndarray, np.ndarray]:
    in_segment = np.zeros(cdag.n_vertices, dtype=bool)
    in_segment[np.asarray(segment, dtype=np.int64)] = True
    r_set: set[int] = set()
    w_set: set[int] = set()
    for v in np.asarray(segment, dtype=np.int64).tolist():
        for p in cdag.predecessors(v).tolist():
            if not in_segment[p]:
                r_set.add(p)
        for s in cdag.successors(v).tolist():
            if not in_segment[s]:
                w_set.add(v)
                break
    return (
        np.array(sorted(r_set), dtype=np.int64),
        np.array(sorted(w_set), dtype=np.int64),
    )
