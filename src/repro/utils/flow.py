"""Bipartite matching machinery for Hall's theorem (Theorem 3 of the paper).

The paper's many-to-one version of Hall's Matching Theorem is proved by
"duplicating all vertices in Y p times"; :func:`capacitated_matching`
implements exactly that reduction on top of a from-scratch Hopcroft-Karp
maximum-matching solver, but without materialising the duplicates (each Y
vertex simply carries a capacity counter inside the augmenting search).

:func:`hall_violator` extracts, from a failed matching, an explicit subset
``D ⊆ X`` with ``|N(D)| < |D| / p`` — the certificate that Lemma 5 would be
violated.  By Lemma 5 this never happens for CDAGs of correct
matrix-multiplication algorithms satisfying the paper's assumptions, and
the routing code raises :class:`repro.errors.HallConditionError` carrying
this certificate if it ever does (e.g. for a deliberately broken
algorithm in the tests).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

from repro.telemetry.spans import add_counter

__all__ = [
    "hopcroft_karp",
    "capacitated_matching",
    "hall_violator",
    "Dinic",
]

_INF = float("inf")


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], n_right: int
) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching via Hopcroft-Karp.

    Parameters
    ----------
    adjacency:
        ``adjacency[x]`` lists the right-side neighbours (ints in
        ``[0, n_right)``) of left vertex ``x``.
    n_right:
        Number of right-side vertices.

    Returns
    -------
    (match_left, match_right):
        ``match_left[x]`` is the right partner of ``x`` or ``-1``;
        ``match_right[y]`` is the left partner of ``y`` or ``-1``.

    Notes
    -----
    Runs in ``O(E * sqrt(V))``.  Deterministic: ties are broken by
    adjacency order, so results are reproducible run to run.
    """
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        found_free = False
        for x in range(n_left):
            if match_left[x] == -1:
                dist[x] = 0
                queue.append(x)
            else:
                dist[x] = -1
        layer_of_free = _INF
        while queue:
            x = queue.popleft()
            if dist[x] >= layer_of_free:
                continue
            for y in adjacency[x]:
                nxt = match_right[y]
                if nxt == -1:
                    layer_of_free = min(layer_of_free, dist[x] + 1)
                    found_free = True
                elif dist[nxt] == -1:
                    dist[nxt] = dist[x] + 1
                    queue.append(nxt)
        return found_free

    def dfs(x: int) -> bool:
        for y in adjacency[x]:
            nxt = match_right[y]
            if nxt == -1 or (dist[nxt] == dist[x] + 1 and dfs(nxt)):
                match_left[x] = y
                match_right[y] = x
                return True
        dist[x] = -1
        return False

    while bfs():
        # One Hopcroft-Karp phase (a BFS layering plus its DFS
        # augmentations) — surfaced to the telemetry span, if any.
        add_counter("matching_phases")
        for x in range(n_left):
            if match_left[x] == -1:
                dfs(x)
    return match_left, match_right


def capacitated_matching(
    adjacency: Sequence[Sequence[int]],
    n_right: int,
    capacity: int,
) -> list[int] | None:
    """Many-to-one matching saturating the left side, or ``None``.

    Finds an assignment ``match[x] = y`` with ``y`` adjacent to ``x`` such
    that every right vertex ``y`` is used at most ``capacity`` times and
    *every* left vertex is assigned — the object guaranteed by the paper's
    Theorem 3 when Hall's condition ``|N(D)| >= |D|/capacity`` holds for
    all ``D ⊆ X``.

    Implemented as Hopcroft-Karp on the implicit graph where each right
    vertex is split into ``capacity`` slots (the paper's own reduction),
    realised lazily via slot counters.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    # Expand right side into capacity slots: slot id = y * capacity + s.
    expanded = [
        [y * capacity + s for y in row for s in range(capacity)]
        for row in adjacency
    ]
    match_left, _ = hopcroft_karp(expanded, n_right * capacity)
    if any(m == -1 for m in match_left):
        return None
    return [m // capacity for m in match_left]


def hall_violator(
    adjacency: Sequence[Sequence[int]],
    n_right: int,
    capacity: int,
) -> tuple[list[int], list[int]] | None:
    """Find a Hall-condition violator, or ``None`` if none exists.

    Returns a pair ``(D, N)`` with ``D ⊆ X``, ``N = N(D)`` and
    ``|N| < |D| / capacity``, or ``None`` when the capacitated matching
    saturates the left side (so no violator exists, by Hall's theorem).

    The violator is obtained by the standard alternating-reachability
    argument: run the matching; from every unmatched left vertex, follow
    alternating (non-matching, matching) edges; the reachable left
    vertices form a deficient set.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    expanded = [
        [y * capacity + s for y in row for s in range(capacity)]
        for row in adjacency
    ]
    match_left, match_right = hopcroft_karp(expanded, n_right * capacity)
    if all(m != -1 for m in match_left):
        return None
    # Alternating BFS from unmatched left vertices in the expanded graph.
    n_left = len(adjacency)
    seen_left = [False] * n_left
    seen_slot = [False] * (n_right * capacity)
    queue: deque[int] = deque(
        x for x in range(n_left) if match_left[x] == -1
    )
    for x in queue:
        seen_left[x] = True
    while queue:
        x = queue.popleft()
        for slot in expanded[x]:
            if seen_slot[slot] or slot == match_left[x]:
                continue
            seen_slot[slot] = True
            owner = match_right[slot]
            # slot is matched (else an augmenting path would exist).
            if owner != -1 and not seen_left[owner]:
                seen_left[owner] = True
                queue.append(owner)
    D = [x for x in range(n_left) if seen_left[x]]
    neighbourhood = sorted(
        {y for x in D for y in adjacency[x]}
    )
    # Sanity of the certificate: |N(D)| * capacity < |D|.
    if len(neighbourhood) * capacity >= len(D):  # pragma: no cover
        raise AssertionError(
            "internal error: extracted set is not a Hall violator"
        )
    return D, neighbourhood


class Dinic:
    """Dinic's max-flow on an integer-capacity directed graph.

    Used for dominator-set computation (minimum vertex cuts via vertex
    splitting) in :mod:`repro.bounds.dominators`.  Capacities may be
    large ints; ``INF`` edges model uncuttable arcs.

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


def degree_histogram(assignment: Sequence[int]) -> Mapping[int, int]:
    """Count how many left vertices each right vertex received in a
    many-to-one ``assignment`` (as returned by
    :func:`capacitated_matching`).  Convenience for tests/benchmarks."""
    out: dict[int, int] = {}
    for y in assignment:
        out[y] = out.get(y, 0) + 1
    return out
