"""Tests for the Hall-matching step (Lemma 5 / Theorem 3 / Figure 8)."""

import pytest

from repro.bilinear import classical, laderman, strassen, winograd
from repro.bilinear.algorithm import BilinearAlgorithm
from repro.errors import HallConditionError
from repro.routing import (
    base_dependencies,
    base_matching,
    check_hall_condition,
    hall_graph,
)

ALGS = [strassen, winograd, lambda: classical(2), laderman, lambda: classical(3)]
IDS = ["strassen", "winograd", "classical2", "laderman", "classical3"]


class TestHallGraph:
    def test_dependency_count(self):
        deps = base_dependencies(strassen(), "A")
        assert len(deps) == 2**3

    def test_figure8_example(self):
        """Figure 8: the dependence (a12, c11) of Strassen's G'_1 admits
        chains through specific multiplications.

        a12 appears in M5 = (A11+A12)B22 and M7 = (A12-A22)(B21+B22);
        c11 = M1+M4-M5+M7 uses M1, M4, M5, M7.  Intersection: {M5, M7}
        (0-based {4, 6}).
        """
        from repro.utils.indexing import pair_index

        alg = strassen()
        deps, adjacency = hall_graph(alg, "A")
        x = deps.index((pair_index(0, 1, 2), pair_index(0, 0, 2)))
        assert adjacency[x] == [4, 6]

    def test_adjacency_subsets_of_mults(self):
        alg = laderman()
        _, adjacency = hall_graph(alg, "B")
        for row in adjacency:
            assert all(0 <= m < alg.b for m in row)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            hall_graph(strassen(), "C")


class TestBaseMatching:
    @pytest.mark.parametrize("maker", ALGS, ids=IDS)
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matching_exists(self, maker, side):
        alg = maker()
        matching = base_matching(alg, side)
        assert len(matching) == alg.n0**3

    @pytest.mark.parametrize("maker", ALGS, ids=IDS)
    def test_capacity_respected(self, maker):
        alg = maker()
        matching = base_matching(alg, "A")
        loads: dict[int, int] = {}
        for m in matching.values():
            loads[m] = loads.get(m, 0) + 1
        assert max(loads.values()) <= alg.n0

    def test_matched_multiplication_is_adjacent(self):
        alg = strassen()
        matching = base_matching(alg, "A")
        for (e_in, e_out), m in matching.items():
            assert alg.U[m, e_in] != 0
            assert alg.W[e_out, m] != 0

    def test_broken_algorithm_fails_hall(self):
        """An 'algorithm' that never uses some input cannot satisfy the
        Hall condition (Lemma 5's contrapositive)."""
        alg = strassen()
        U = alg.U.copy()
        U[:, 1] = 0.0  # erase a12 from every product
        broken = BilinearAlgorithm(n0=2, U=U, V=alg.V, W=alg.W, name="no-a12")
        with pytest.raises(HallConditionError) as exc_info:
            base_matching(broken, "A")
        assert exc_info.value.violating_set is not None


class TestHallCondition:
    @pytest.mark.parametrize("maker", ALGS, ids=IDS)
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_condition_holds(self, maker, side):
        """Lemma 5: |N(D)| >= |D| / n0 always (checked exhaustively per
        row class for small n0)."""
        report = check_hall_condition(maker(), side)
        assert report["holds"]
        if report["exhaustive"]:
            assert report["min_ratio"] >= 1.0

    def test_exhaustive_for_n0_2(self):
        assert check_hall_condition(strassen(), "A")["exhaustive"]

    def test_strassen_tightness(self):
        """For Strassen some dependency set achieves the Hall bound with
        equality (the matching is forced somewhere)."""
        report = check_hall_condition(strassen(), "A")
        assert report["min_ratio"] <= 2.0  # not vacuously loose
