"""Tests for Fact 1 decomposition and Lemma 1 input-disjoint families."""

import pytest

from repro.bilinear import classical, laderman, strassen, strassen_x_classical
from repro.cdag import (
    build_cdag,
    compute_metavertices,
    input_disjoint_family,
    middle_ranks_vertices,
    subcomputation,
    subcomputation_count,
    subcomputation_of_vertex,
    verify_fact1,
)
from repro.errors import CDAGError


@pytest.fixture(scope="module")
def g3():
    return build_cdag(strassen(), 3)


class TestFact1:
    def test_copy_count(self, g3):
        assert subcomputation_count(g3, 1) == 7**2
        assert subcomputation_count(g3, 3) == 1
        assert subcomputation_count(g3, 0) == 7**3

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_verify_fact1_strassen(self, g3, k):
        report = verify_fact1(g3, k)
        assert report["ok"], report

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_verify_fact1_laderman(self, k):
        g = build_cdag(laderman(), 2)
        assert verify_fact1(g, k)["ok"]

    def test_verify_fact1_classical(self):
        g = build_cdag(classical(2), 3)
        assert verify_fact1(g, 1)["ok"]

    def test_copies_partition_middle_ranks(self, g3):
        k = 1
        middle = set(middle_ranks_vertices(g3, k).tolist())
        seen = set()
        for i in range(subcomputation_count(g3, k)):
            vs = set(subcomputation(g3, k, i).all_vertices().tolist())
            assert not (vs & seen)
            seen |= vs
        assert seen == middle

    def test_invalid_k_raises(self, g3):
        with pytest.raises(CDAGError):
            subcomputation_count(g3, 4)
        with pytest.raises(CDAGError):
            subcomputation_count(g3, -1)

    def test_invalid_index_raises(self, g3):
        with pytest.raises(CDAGError):
            subcomputation(g3, 1, 49)


class TestSubcomputation:
    def test_io_counts(self, g3):
        sub = subcomputation(g3, 2, 3)
        assert len(sub.inputs("A")) == 4**2
        assert len(sub.inputs()) == 2 * 4**2
        assert len(sub.outputs()) == 4**2
        assert len(sub.products()) == 7**2

    def test_prefix_roundtrip(self, g3):
        sub = subcomputation(g3, 1, 10)
        assert len(sub.prefix) == 2
        from repro.utils.indexing import MixedRadix

        assert MixedRadix([7, 7]).pack(sub.prefix) == 10

    def test_vertex_membership(self, g3):
        k = 1
        sub = subcomputation(g3, k, 5)
        for v in sub.all_vertices().tolist():
            assert subcomputation_of_vertex(g3, v, k) == 5

    def test_vertex_outside_middle_ranks(self, g3):
        # An input of G_r lies below the middle ranks for k < r.
        v = int(g3.inputs()[0])
        assert subcomputation_of_vertex(g3, v, 1) is None

    def test_local_id_maps_ranks(self, g3):
        k = 2
        sub = subcomputation(g3, k, 6)
        gk = build_cdag(strassen(), k)
        for v in sub.inputs("A").tolist():
            lv = sub.local_id(v)
            assert lv in gk.inputs("A").tolist()
        for v in sub.outputs().tolist():
            lv = sub.local_id(v)
            assert lv in gk.outputs().tolist()

    def test_local_id_wrong_copy_raises(self, g3):
        sub0 = subcomputation(g3, 1, 0)
        sub1 = subcomputation(g3, 1, 1)
        v = int(sub1.products()[0])
        with pytest.raises(CDAGError):
            sub0.local_id(v)

    def test_local_id_outside_ranks_raises(self, g3):
        sub = subcomputation(g3, 1, 0)
        v = int(g3.inputs()[0])
        with pytest.raises(CDAGError):
            sub.local_id(v)

    def test_encoder_rank_bounds(self, g3):
        sub = subcomputation(g3, 1, 0)
        with pytest.raises(CDAGError):
            sub.encoder_rank("A", 2)
        with pytest.raises(CDAGError):
            sub.decoder_rank(-1)


class TestLemma1:
    def test_strassen_all_copies_disjoint(self, g3):
        """Strassen has only chains, so every copy qualifies."""
        meta = compute_metavertices(g3)
        family = input_disjoint_family(g3, 1, meta)
        assert len(family) == 49

    def test_family_is_input_disjoint(self, g3):
        meta = compute_metavertices(g3)
        family = input_disjoint_family(g3, 1, meta)
        seen = set()
        for i in family:
            labels = set(meta.label[subcomputation(g3, 1, i).inputs()].tolist())
            assert not (labels & seen)
            seen |= labels

    def test_multicopy_algorithm_selection(self):
        """strassen(x)classical has multiple copying: the constructive
        selection must produce b^(r-k-2) mutually disjoint copies."""
        g = build_cdag(strassen_x_classical(), 2)
        meta = compute_metavertices(g)
        family = input_disjoint_family(g, 0, meta)
        assert len(family) == 56 ** 0
        # Verify disjointness explicitly.
        seen = set()
        for i in family:
            labels = set(meta.label[subcomputation(g, 0, i).inputs()].tolist())
            assert not (labels & seen)
            seen |= labels

    def test_classical_fails_lemma1_precondition(self):
        """Classical has only trivial encoder rows, so the Lemma 1
        precondition fails — exactly the paper's remark that such
        algorithms are not fast."""
        g = build_cdag(classical(2), 4)
        meta = compute_metavertices(g)
        with pytest.raises(CDAGError, match="trivial rows"):
            input_disjoint_family(g, 1, meta)

    def test_multicopy_fast_path_large_r(self):
        """Duplicated-trivial-product Strassen (b=8) has multiple
        copying but nontrivial rows: the constructive selection yields
        b^(r-k-2) mutually disjoint copies."""
        from repro.bilinear.synthetic import with_duplicate_product

        alg = with_duplicate_product(strassen(), product=2)
        g = build_cdag(alg, 4)
        meta = compute_metavertices(g)
        family = input_disjoint_family(g, 1, meta)
        assert len(family) == 8 ** (4 - 1 - 2)
        seen = set()
        for i in family:
            labels = set(meta.label[subcomputation(g, 1, i).inputs()].tolist())
            assert not (labels & seen)
            seen |= labels

    def test_k_too_large_with_multicopy_raises(self):
        g = build_cdag(classical(2), 2)
        meta = compute_metavertices(g)
        with pytest.raises(CDAGError):
            input_disjoint_family(g, 1, meta)

    def test_fraction_at_least_inverse_b_squared(self):
        """Lemma 1's statement: the family is >= 1/b^2 of all copies."""
        from repro.bilinear.synthetic import with_duplicate_product

        alg = with_duplicate_product(strassen(), product=2)
        g = build_cdag(alg, 4)
        meta = compute_metavertices(g)
        family = input_disjoint_family(g, 1, meta)
        total = subcomputation_count(g, 1)
        assert len(family) * g.b**2 >= total
