"""Max flow: Hall matchings (Theorem 3 of the paper) and minimum cuts.

The paper proves its many-to-one Hall theorem by "duplicating all
vertices in Y p times".  Here the duplicates are one arc: the network
source -> x (capacity 1) -> y (capacity 1, one arc per edge) -> sink
(capacity ``p``) is solved by :class:`Dinic`, and a flow of ``|X|`` is a
matching that assigns every left vertex and uses every right one at
most ``p`` times (:func:`capacitated_matching`, :func:`maximum_matching`).

:func:`hall_violator` reads from the same network's minimum cut an
explicit ``D ⊆ X`` with ``|N(D)| < |D| / p`` — the certificate that
Lemma 5 would be violated.  By Lemma 5 this never happens for CDAGs of
correct matrix-multiplication algorithms satisfying the paper's
assumptions; the routing code raises
:class:`repro.errors.HallConditionError` carrying it if it ever does
(e.g. for a deliberately broken algorithm in the tests).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["maximum_matching", "capacitated_matching", "hall_violator", "Dinic"]


def _solve(
    adjacency: Sequence[Sequence[int]], n_right: int, capacity: int
) -> tuple["Dinic", list[list[int]], int]:
    """Build and solve the matching network of ``adjacency`` with right
    capacity ``capacity``: source 0, sink 1, left ``x`` at ``2 + x``,
    right ``y`` at ``2 + n_left + y``.  Returns the solved network, the
    indices of each x's arcs in adjacency order, and the flow value.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if any(not 0 <= y < n_right for row in adjacency for y in row):
        raise ValueError(f"right vertex id outside [0, {n_right})")
    n_left = len(adjacency)
    right = 2 + n_left
    dinic = Dinic(right + n_right)
    arcs = []
    for x, row in enumerate(adjacency):
        dinic.add_edge(0, 2 + x, 1)
        arcs.append([dinic.add_edge(2 + x, right + y, 1) for y in row])
    for y in range(n_right):
        dinic.add_edge(right + y, 1, capacity)
    return dinic, arcs, dinic.max_flow(0, 1)


def maximum_matching(
    adjacency: Sequence[Sequence[int]], n_right: int, capacity: int = 1
) -> list[int]:
    """A maximum many-to-one matching: ``match[x]`` is the right partner
    of left vertex ``x``, or ``-1``; every right vertex has at most
    ``capacity`` partners.

    ``adjacency[x]`` lists the right-side neighbours (ints in
    ``[0, n_right)``) of ``x``; any other id raises ``ValueError``.
    Deterministic: ties follow adjacency order.
    """
    dinic, arcs, _ = _solve(adjacency, n_right, capacity)
    return [
        next((y for y, arc in zip(row, row_arcs) if dinic.cap[arc] == 0), -1)
        for row, row_arcs in zip(adjacency, arcs)
    ]


def capacitated_matching(
    adjacency: Sequence[Sequence[int]], n_right: int, capacity: int
) -> list[int] | None:
    """Many-to-one matching saturating the left side, or ``None``.

    Finds an assignment ``match[x] = y`` with ``y`` adjacent to ``x`` such
    that every right vertex ``y`` is used at most ``capacity`` times and
    *every* left vertex is assigned — the object guaranteed by the paper's
    Theorem 3 when Hall's condition ``|N(D)| >= |D|/capacity`` holds for
    all ``D ⊆ X``.
    """
    match = maximum_matching(adjacency, n_right, capacity)
    return None if -1 in match else match


def hall_violator(
    adjacency: Sequence[Sequence[int]], n_right: int, capacity: int
) -> tuple[list[int], list[int]] | None:
    """Find a Hall-condition violator, or ``None`` if none exists.

    Returns a pair ``(D, N)`` with ``D ⊆ X``, ``N = N(D)`` and
    ``|N| < |D| / capacity``, or ``None`` when the capacitated matching
    saturates the left side (so no violator exists, by Hall's theorem).

    ``D`` is the set of left vertices in the minimum cut's source side
    ``S`` (what the source reaches in the residual network), and it is
    a violator:

    - no arc from ``D`` leaves ``S``, so ``N(D)`` lies inside it: an arc
      without flow has residual capacity, and a left vertex whose arc
      carries flow is only reached backwards over that arc.  A right
      vertex enters ``S`` only over an arc from ``D``, so ``N(D)`` is
      all of ``S`` on the right;
    - the cut, ``|X - D| + capacity * |N(D)|``, equals the flow, which
      is below ``|X|``; hence ``capacity * |N(D)| < |D|``.
    """
    dinic, _, flow = _solve(adjacency, n_right, capacity)
    n_left = len(adjacency)
    if flow == n_left:
        return None
    D = [v - 2 for v in dinic.min_cut_source_side(0) if 2 <= v < 2 + n_left]
    neighbourhood = sorted({y for x in D for y in adjacency[x]})
    return D, neighbourhood


class Dinic:
    """Dinic's max-flow on an integer-capacity directed graph.

    Solves the Hall matching network of this module and the dominator
    cuts (minimum vertex cuts via vertex splitting) of
    :mod:`repro.bounds.dominators`.  Capacities may be large ints;
    ``INF`` edges model uncuttable arcs.

    Examples
    --------
    >>> d = Dinic(4)
    >>> _ = [d.add_edge(0, 1, 2), d.add_edge(0, 2, 2)]
    >>> _ = [d.add_edge(1, 3, 1), d.add_edge(2, 3, 3)]
    >>> d.max_flow(0, 3)
    3
    """

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
            flow += self._blocking_flow(source, sink, level)

    def min_cut_source_side(self, source: int) -> list[int]:
        """After :meth:`max_flow`, vertices reachable from the source in
        the residual graph (the source side of a minimum cut)."""
        seen = [False] * self.n
        seen[source] = True
        stack = [source]
        while stack:
            u = stack.pop()
            for index in self.head[u]:
                if self.cap[index] > 0 and not seen[self.to[index]]:
                    seen[self.to[index]] = True
                    stack.append(self.to[index])
        return [v for v in range(self.n) if seen[v]]

    def _bfs(self, source: int, sink: int):
        """Residual distances from the source, or ``None`` when the sink
        is unreachable.  Stops once the sink is labelled: every vertex of
        a shortest path to it is nearer, so already labelled."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[source] = 0
        queue = [source]
        for u in queue:
            nxt = level[u] + 1
            for index in head[u]:
                v = to[index]
                if cap[index] > 0 and level[v] == -1:
                    level[v] = nxt
                    if v == sink:
                        return level
                    queue.append(v)
        return None

    def _blocking_flow(self, source: int, sink: int, level: list[int]) -> int:
        """Augment along shortest residual paths until the level graph
        has none left; returns the flow pushed.

        Iterative, so an augmenting path of any length costs no Python
        stack: ``path`` holds the edges from the source to ``u``, and
        ``current[x]`` is the next edge of ``x`` to try.  A vertex with
        no edge left is a dead end for the rest of the phase (augmenting
        only removes level-graph edges), so it leaves the level graph.
        """
        head, to, cap = self.head, self.to, self.cap
        current = [0] * self.n
        path: list[int] = []
        pushed = 0
        u = source
        while True:
            if u == sink:
                bottleneck = min(cap[index] for index in path)
                for index in path:
                    cap[index] -= bottleneck
                    cap[index ^ 1] += bottleneck
                pushed += bottleneck
                # Back up to the tail of the first saturated edge.
                k = next(i for i, index in enumerate(path) if cap[index] == 0)
                u = to[path[k] ^ 1]
                del path[k:]
                continue
            edges = head[u]
            nxt = level[u] + 1
            for i in range(current[u], len(edges)):
                index = edges[i]
                if cap[index] > 0 and level[to[index]] == nxt:
                    current[u] = i
                    path.append(index)
                    u = to[index]
                    break
            else:
                if u == source:
                    return pushed
                # Retreat; the edge into u now fails the level test.
                level[u] = -1
                u = to[path.pop() ^ 1]
