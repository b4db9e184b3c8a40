"""Tests for maximum matching and the capacitated (Theorem 3) form."""

from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.flow import (
    capacitated_matching,
    hall_violator,
    maximum_matching,
)


def _matching_size(adjacency, n_right, capacity=1):
    match = maximum_matching(adjacency, n_right, capacity)
    partners = [y for y in match if y != -1]
    # Partners are neighbours, and no right vertex is used more than
    # ``capacity`` times (with capacity 1: no right vertex repeats).
    for x, y in enumerate(match):
        assert y == -1 or y in adjacency[x]
    assert all(count <= capacity for count in Counter(partners).values())
    return len(partners)


class TestHopcroftKarp:
    """Maximum-matching cases (kept under their original class name);
    they now cover :func:`maximum_matching`."""

    def test_perfect_matching_complete_graph(self):
        adj = [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
        assert _matching_size(adj, 3) == 3

    def test_no_edges(self):
        assert _matching_size([[], []], 3) == 0

    def test_single_edge(self):
        assert _matching_size([[1]], 2) == 1

    def test_bottleneck(self):
        # Three left vertices all adjacent only to right vertex 0.
        adj = [[0], [0], [0]]
        assert _matching_size(adj, 1) == 1

    def test_augmenting_path_needed(self):
        # Greedy could match x0-y0 and block x1; HK must find size 2.
        adj = [[0, 1], [0]]
        assert _matching_size(adj, 2) == 2

    def test_empty_left(self):
        assert _matching_size([], 4) == 0

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_matches_networkx(self, n_left, n_right, capacity, data):
        """Maximum matching size must equal networkx's on random graphs,
        with each right vertex copied ``capacity`` times for networkx
        (the paper's reduction in Theorem 3)."""
        adj = [
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_right - 1),
                        max_size=n_right,
                    )
                )
            )
            for _ in range(n_left)
        ]
        size = _matching_size(adj, n_right, capacity)

        g = nx.Graph()
        g.add_nodes_from(f"L{x}" for x in range(n_left))
        g.add_nodes_from(
            f"R{y}.{c}" for y in range(n_right) for c in range(capacity)
        )
        for x, row in enumerate(adj):
            for y in row:
                for c in range(capacity):
                    g.add_edge(f"L{x}", f"R{y}.{c}")
        nx_size = len(
            nx.bipartite.maximum_matching(
                g, top_nodes=[f"L{x}" for x in range(n_left)]
            )
        ) // 2
        assert size == nx_size


class TestCapacitatedMatching:
    def test_capacity_one_is_plain_matching(self):
        adj = [[0], [1]]
        assignment = capacitated_matching(adj, 2, 1)
        assert assignment == [0, 1]

    def test_many_to_one(self):
        # 4 left vertices, 2 right, capacity 2: feasible.
        adj = [[0, 1]] * 4
        assignment = capacitated_matching(adj, 2, 2)
        assert assignment is not None
        assert all(count <= 2 for count in Counter(assignment).values())

    def test_infeasible_returns_none(self):
        # 3 left vertices only adjacent to right 0, capacity 2.
        adj = [[0], [0], [0]]
        assert capacitated_matching(adj, 1, 2) is None

    def test_respects_adjacency(self):
        adj = [[1], [0]]
        assignment = capacitated_matching(adj, 2, 3)
        assert assignment == [1, 0]

    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            capacitated_matching([[0]], 1, 0)

    def test_out_of_range_neighbour_raises(self):
        for adj in ([[-1], [0]], [[2]]):
            with pytest.raises(ValueError):
                capacitated_matching(adj, 2, 1)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_feasibility_matches_hall_condition(
        self, n_left, n_right, capacity, data
    ):
        """capacitated_matching succeeds iff every subset D of the left
        side satisfies |N(D)| >= |D| / capacity (Hall, Theorem 3)."""
        from itertools import combinations

        adj = [
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_right - 1),
                        max_size=n_right,
                    )
                )
            )
            for _ in range(n_left)
        ]
        assignment = capacitated_matching(adj, n_right, capacity)

        hall_ok = True
        for size in range(1, n_left + 1):
            for D in combinations(range(n_left), size):
                neighborhood = set().union(*(set(adj[x]) for x in D))
                if len(neighborhood) * capacity < len(D):
                    hall_ok = False
        assert (assignment is not None) == hall_ok
        if assignment is not None:
            for x, y in enumerate(assignment):
                assert y in adj[x]
            assert all(
                c <= capacity for c in Counter(assignment).values()
            )


class TestHallViolator:
    def test_none_when_feasible(self):
        assert hall_violator([[0], [1]], 2, 1) is None

    def test_certificate_when_infeasible(self):
        adj = [[0], [0], [0]]
        result = hall_violator(adj, 1, 2)
        assert result is not None
        D, N = result
        assert len(N) * 2 < len(D)
        # N must be the true neighborhood of D.
        assert set(N) == set().union(*(set(adj[x]) for x in D))

    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            hall_violator([[0]], 1, 0)

    def test_out_of_range_neighbour_raises(self):
        # Without the check this returns a certificate naming vertex -1.
        with pytest.raises(ValueError):
            hall_violator([[-1]] * 3, 2, 1)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_violator_is_valid_certificate(self, n_left, n_right, capacity, data):
        adj = [
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_right - 1),
                        max_size=n_right,
                    )
                )
            )
            for _ in range(n_left)
        ]
        result = hall_violator(adj, n_right, capacity)
        if result is None:
            assert capacitated_matching(adj, n_right, capacity) is not None
        else:
            D, N = result
            assert set(N) == set().union(*(set(adj[x]) for x in D))
            assert len(N) * capacity < len(D)
