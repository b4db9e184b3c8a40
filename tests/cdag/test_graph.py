"""Tests for the CDAG data structure and its numeric self-check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import (
    BilinearAlgorithm,
    classical,
    laderman,
    strassen,
    winograd,
)
from repro.cdag import Region, build_base_graph, build_cdag
from repro.cdag.graph import csr_rows
from repro.errors import CDAGError, RoutingError
from repro.routing.verify import verify_path
from repro.utils.rngs import make_rng


@pytest.fixture(scope="module")
def strassen_g2():
    return build_cdag(strassen(), 2)


class TestBaseGraph:
    def test_figure1_counts(self):
        """Figure 1: Strassen's base graph has 8 inputs, 7 products,
        4 outputs."""
        g = build_base_graph(strassen())
        assert len(g.inputs()) == 8
        assert len(g.inputs("A")) == 4
        assert len(g.products()) == 7
        assert len(g.outputs()) == 4

    def test_product_in_degree_is_two(self):
        g = build_base_graph(strassen())
        for v in g.products():
            assert len(g.predecessors(int(v))) == 2

    def test_product_preds_one_per_encoder(self):
        g = build_base_graph(strassen())
        for v in g.products():
            regions = sorted(g.region[p] for p in g.predecessors(int(v)))
            assert regions == [Region.ENC_A, Region.ENC_B]

    def test_inputs_have_no_predecessors(self):
        g = build_base_graph(winograd())
        for v in g.inputs():
            assert len(g.predecessors(int(v))) == 0

    def test_outputs_have_no_successors(self):
        g = build_base_graph(winograd())
        for v in g.outputs():
            assert len(g.successors(int(v))) == 0

    def test_encoder_edge_supports_match_u(self):
        """Rank-1 encoder vertex m depends on input e iff U[m,e] != 0."""
        alg = strassen()
        g = build_base_graph(alg)
        for m in range(alg.b):
            v = g.vertex_id(Region.ENC_A, 1, (m,))
            preds = set(g.predecessors(v).tolist())
            expected = {
                g.vertex_id(Region.ENC_A, 0, (e,))
                for e in np.nonzero(alg.U[m])[0]
            }
            assert preds == expected

    def test_decoder_edge_supports_match_w(self):
        alg = strassen()
        g = build_base_graph(alg)
        for e in range(alg.a):
            v = g.vertex_id(Region.DEC, 1, (e,))
            preds = set(g.predecessors(v).tolist())
            expected = {
                g.vertex_id(Region.DEC, 0, (m,))
                for m in np.nonzero(alg.W[e])[0]
            }
            assert preds == expected


class TestRankStructure:
    def test_rank_range(self, strassen_g2):
        g = strassen_g2
        assert g.rank.min() == 0
        assert g.rank.max() == 2 * g.r + 1

    def test_rank_sizes_formula(self):
        from repro.cdag import expected_rank_sizes, rank_sizes

        for alg, r in [(strassen(), 3), (classical(2), 2), (laderman(), 2)]:
            g = build_cdag(alg, r)
            assert rank_sizes(g) == expected_rank_sizes(alg.a, alg.b, r)

    def test_edges_cross_one_rank(self, strassen_g2):
        g = strassen_g2
        for child, parent in g.iter_edges():
            assert g.rank[parent] == g.rank[child] + 1

    def test_input_count_2a_r(self):
        g = build_cdag(strassen(), 3)
        assert len(g.inputs()) == 2 * 4**3

    def test_product_count_b_r(self):
        g = build_cdag(strassen(), 3)
        assert len(g.products()) == 7**3


class TestAddressing:
    def test_vertex_id_digit_roundtrip(self, strassen_g2):
        g = strassen_g2
        rng = make_rng(3)
        for v in rng.choice(g.n_vertices, size=50, replace=False).tolist():
            region, local_rank, digits = g.vertex_digits(v)
            assert g.vertex_id(region, local_rank, digits) == v

    def test_bad_slab_raises(self, strassen_g2):
        with pytest.raises(CDAGError):
            strassen_g2.slab(Region.DEC, 99)

    def test_bad_vertex_raises(self, strassen_g2):
        with pytest.raises(CDAGError):
            strassen_g2.slab_of(strassen_g2.n_vertices)

    def test_inputs_bad_side_raises(self, strassen_g2):
        with pytest.raises(ValueError):
            strassen_g2.inputs("C")

    def test_slab_vertices_contiguous(self, strassen_g2):
        g = strassen_g2
        ids = g.slab_vertices(Region.ENC_B, 1)
        assert (np.diff(ids) == 1).all()


class TestAdjacencyConsistency:
    def test_succ_is_transpose_of_pred(self, strassen_g2):
        g = strassen_g2
        # Rebuild successor sets from predecessor sets and compare.
        succ = {v: set() for v in range(g.n_vertices)}
        for child, parent in g.iter_edges():
            succ[child].add(parent)
        for v in range(g.n_vertices):
            assert set(g.successors(v).tolist()) == succ[v]

    def test_degree_sums(self, strassen_g2):
        g = strassen_g2
        assert g.in_degree().sum() == g.n_edges
        assert g.out_degree().sum() == g.n_edges

    def test_csr_is_int32(self, strassen_g2):
        g = strassen_g2
        for arr in (*g.pred_csr(), g.succ_indptr, g.succ_indices):
            assert arr.dtype == np.int32

    def test_csr_rows_refuses_int32_overflow(self):
        """Rows selecting 2**31 entries or more raise before any gather:
        one row of 2**30 entries, asked for three times."""
        indptr = np.array([0, 2**30], dtype=np.int32)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            csr_rows(indptr, np.empty(0, dtype=np.int32), np.zeros(3, dtype=np.int64))

    def test_edge_key_index_at_r5(self):
        """n = 32: keys ``u * n_vertices + v`` reach ~1.3e10, past
        int32, built over the int32 CSR.  Every (parent, child) pair is
        found in both orientations, and a non-edge is not."""
        g = build_cdag(strassen(), 5)
        keys = g.edge_key_index()
        assert keys.dtype == np.int64 and len(keys) == 2 * g.n_edges
        n = g.n_vertices
        parent = np.repeat(np.arange(n, dtype=np.int64), g.in_degree())
        child = g.pred_indices.astype(np.int64)
        assert parent.max() * n > 2**31
        for u, v in ((parent, child), (child, parent)):
            want = u * n + v
            pos = np.searchsorted(keys, want)
            assert (pos < len(keys)).all()
            assert (keys[pos] == want).all()
        u, v = int(g.outputs()[-1]), int(g.inputs()[0])
        assert v not in g.predecessors(u) and u not in g.predecessors(v)
        for key in (u * n + v, v * n + u):
            pos = int(np.searchsorted(keys, key))
            assert pos == len(keys) or keys[pos] != key
        verify_path(g, np.array([int(child[-1]), int(parent[-1])]))
        with pytest.raises(RoutingError):
            verify_path(g, np.array([u, v]))


class TestEvaluate:
    @pytest.mark.parametrize(
        "maker,r",
        [
            (strassen, 1),
            (strassen, 2),
            (strassen, 3),
            (winograd, 2),
            (lambda: classical(2), 2),
            (lambda: classical(3), 1),
            (laderman, 1),
            (laderman, 2),
        ],
        ids=[
            "strassen-r1", "strassen-r2", "strassen-r3", "winograd-r2",
            "classical2-r2", "classical3-r1", "laderman-r1", "laderman-r2",
        ],
    )
    def test_matches_numpy(self, maker, r):
        alg = maker()
        g = build_cdag(alg, r)
        n = alg.n0**r
        rng = make_rng(11)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C = g.evaluate(A, B)["C"]
        np.testing.assert_allclose(C, A @ B, atol=1e-9)

    def test_wrong_shape_raises(self, strassen_g2):
        with pytest.raises(CDAGError):
            strassen_g2.evaluate(np.eye(3), np.eye(3))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_composition_evaluate_property(self, seed):
        """Tensor-product CDAG evaluation equals numpy matmul."""
        from repro.bilinear import strassen_x_classical

        g = build_cdag(strassen_x_classical(), 1)
        rng = make_rng(seed)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        np.testing.assert_allclose(g.evaluate(A, B)["C"], A @ B, atol=1e-9)


class TestCopyFlags:
    def test_strassen_base_copy_count(self):
        # Strassen base: U rows 2 (A11), 3 (A22) trivial; V rows 1 (B11),
        # 4 (B22) trivial.  4 copy vertices at rank 1.
        g = build_base_graph(strassen())
        assert int(np.count_nonzero(g.is_copy)) == 4

    def test_copies_have_single_pred(self, strassen_g2):
        g = strassen_g2
        for v in np.nonzero(g.is_copy)[0].tolist():
            assert len(g.predecessors(v)) == 1

    def test_copy_parent(self):
        g = build_base_graph(strassen())
        v = int(np.nonzero(g.is_copy)[0][0])
        parent = g.copy_parent(v)
        assert parent is not None
        assert parent in g.predecessors(v)

    def test_copy_parent_none_for_noncopy(self, strassen_g2):
        g = strassen_g2
        v = int(np.nonzero(~g.is_copy)[0][0])
        assert g.copy_parent(v) is None

    def test_no_copies_in_decoder_of_catalog(self):
        for alg in (strassen(), winograd(), laderman()):
            g = build_cdag(alg, 2)
            dec_mask = g.region == Region.DEC
            assert not (g.is_copy & dec_mask).any()


class TestLimits:
    def test_vertex_limit_enforced(self):
        with pytest.raises(CDAGError):
            build_cdag(strassen(), 12)

    def test_edge_limit_enforced_before_allocating(self):
        """Vertex ids, edge offsets and the simulator's touch indices
        are int32, so vertices plus edges must stay below 2**31.  A
        dense 16x16 base with 2,401 products passes MAX_VERTICES at
        r = 2 but not that: it has the support, and so the counts, of
        ``tensor_power(random_equivalent(strassen(), seed=0,
        integer=False), 4)`` (fully dense), whose own construction
        takes over a minute.  The refusal comes before any edge block
        is allocated."""
        dense = BilinearAlgorithm(
            n0=16, U=np.ones((2401, 256)), V=np.ones((2401, 256)),
            W=np.ones((256, 2401)), name="dense-16x16",
        )
        tracemalloc.start()
        try:
            with pytest.raises(CDAGError, match="4,910,952,578 edges"):
                build_cdag(dense, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_bad_r_rejected(self):
        with pytest.raises(ValueError):
            build_cdag(strassen(), -1)

    def test_r_zero_is_scalar_multiply(self):
        g = build_cdag(strassen(), 0)
        assert g.n_vertices == 3
        C = g.evaluate(np.array([[3.0]]), np.array([[4.0]]))["C"]
        assert C[0, 0] == 12.0
