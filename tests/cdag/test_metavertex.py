"""Tests for meta-vertex computation (paper Figure 2, Lemma 2 premise)."""

import numpy as np
import pytest

from repro.bilinear import classical, laderman, strassen, strassen_x_classical, winograd
from repro.cdag import build_cdag, compute_metavertices


@pytest.fixture(scope="module")
def strassen_meta():
    g = build_cdag(strassen(), 3)
    return g, compute_metavertices(g)


class TestPartitionBasics:
    def test_labels_are_roots(self, strassen_meta):
        g, meta = strassen_meta
        for root in meta.roots().tolist():
            assert meta.label[root] == root
            assert not g.is_copy[root]

    def test_noncopy_vertices_are_their_own_meta_root(self, strassen_meta):
        g, meta = strassen_meta
        for v in np.nonzero(~g.is_copy)[0].tolist():
            assert meta.label[v] == v

    def test_partition_covers_everything(self, strassen_meta):
        g, meta = strassen_meta
        sizes = meta.sizes()
        assert sum(sizes.values()) == g.n_vertices

    def test_n_meta_equals_noncopy_count(self, strassen_meta):
        g, meta = strassen_meta
        assert meta.n_meta == int(np.count_nonzero(~g.is_copy))

    def test_members_contain_root(self, strassen_meta):
        _, meta = strassen_meta
        root = int(meta.roots()[0])
        assert root in meta.members(root)

    def test_same_meta(self, strassen_meta):
        g, meta = strassen_meta
        v = int(np.nonzero(g.is_copy)[0][0])
        parent = int(g.predecessors(v)[0])
        assert meta.same_meta(v, parent)


class TestStructure:
    def test_strassen_chains_only(self, strassen_meta):
        """Strassen has no multiple copying: every meta is a chain."""
        _, meta = strassen_meta
        assert len(meta.multi_copy_roots()) == 0

    def test_strassen_tree_structure(self, strassen_meta):
        _, meta = strassen_meta
        assert meta.verify_tree_structure()

    def test_strassen_chain_max_length(self, strassen_meta):
        """A copy chain in Strassen's G_3 extends at most r ranks."""
        _, meta = strassen_meta
        assert max(meta.size_histogram()) <= 4

    def test_classical_has_multiple_copying(self):
        g = build_cdag(classical(2), 2)
        meta = compute_metavertices(g)
        assert len(meta.multi_copy_roots()) > 0
        assert meta.verify_tree_structure()

    def test_multi_copy_roots_at_inputs_classical(self):
        """Classical rows are trivial: branching metas root at inputs
        (single-use assumption consequence)."""
        g = build_cdag(classical(2), 2)
        meta = compute_metavertices(g)
        assert meta.nontrivial_roots_at_inputs()

    def test_strassen_x_classical_multiple_copying(self):
        g = build_cdag(strassen_x_classical(), 2)
        meta = compute_metavertices(g)
        assert len(meta.multi_copy_roots()) > 0
        assert meta.verify_tree_structure()

    @pytest.mark.parametrize(
        "maker", [strassen, winograd, laderman],
        ids=["strassen", "winograd", "laderman"],
    )
    def test_decoder_never_copies(self, maker):
        """Lemma 2: the decoding graph of a correct MM algorithm (n0>=2)
        contains no copying."""
        g = build_cdag(maker(), 2)
        assert compute_metavertices(g).decoder_has_no_copying()

    def test_meta_at_most_one_vertex_per_rank_without_multicopy(
        self, strassen_meta
    ):
        """A chain has one vertex per rank — the fact behind the 'all
        subcomputations input-disjoint' fast path of Lemma 1."""
        g, meta = strassen_meta
        for root in meta.roots().tolist():
            members = meta.members(root)
            if len(members) > 1:
                ranks = g.rank[members]
                assert len(np.unique(ranks)) == len(ranks)


class TestClosure:
    def test_closure_adds_copies(self, strassen_meta):
        g, meta = strassen_meta
        v = int(np.nonzero(g.is_copy)[0][0])
        parent = int(g.predecessors(v)[0])
        closed = set(meta.closure([parent]).tolist())
        assert v in closed

    def test_closure_idempotent(self, strassen_meta):
        g, meta = strassen_meta
        vertices = np.arange(0, g.n_vertices, 97)
        once = meta.closure(vertices)
        twice = meta.closure(once)
        np.testing.assert_array_equal(np.sort(once), np.sort(twice))

    def test_closure_empty(self, strassen_meta):
        _, meta = strassen_meta
        assert len(meta.closure([])) == 0


class TestDuplicatedVertices:
    def test_duplicated_count_strassen(self, strassen_meta):
        g, meta = strassen_meta
        dup = meta.duplicated_vertices()
        # Every copy vertex and every copied-from vertex is duplicated.
        assert int(np.count_nonzero(g.is_copy)) < len(dup)

    def test_no_duplicates_in_tiny_graph(self):
        # laderman r=1: copies exist (trivial rows), so check a graph
        # where metas are all singletons: none exists in the catalog with
        # copies absent entirely, so check count consistency instead.
        g = build_cdag(laderman(), 1)
        meta = compute_metavertices(g)
        dup = meta.duplicated_vertices()
        hist = meta.size_histogram()
        expected = sum(size * count for size, count in hist.items() if size > 1)
        assert len(dup) == expected
