"""Tests for Lemma 3 (chains for guaranteed dependencies, Claim 2
lifting) and Lemma 4 (concatenation routing)."""

import numpy as np
import pytest

from repro.bilinear import classical, laderman, strassen, winograd
from repro.cdag import build_cdag, compute_metavertices
from repro.routing import (
    Routing,
    chain_usage_counts,
    count_guaranteed_dependencies,
    dependency_chain,
    guaranteed_dependencies,
    lemma3_routing,
    lemma4_routing,
    verify_path,
    verify_routing,
)
from repro.routing.hall import base_matching
from repro.errors import RoutingError


@pytest.fixture(scope="module")
def g2():
    return build_cdag(strassen(), 2)


@pytest.fixture(scope="module")
def chains2(g2):
    return lemma3_routing(g2)


class TestDependencyChain:
    def test_chain_is_valid_path(self, g2):
        matching = base_matching(strassen(), "A")
        deps = list(guaranteed_dependencies(g2, side="A"))
        for v, w in deps[:10]:
            chain = dependency_chain(g2, v, w, matching)
            verify_path(g2, chain)
            assert chain[0] == v and chain[-1] == w

    def test_chain_length(self, g2):
        """A chain spans every rank once: 2r + 2 vertices."""
        matching = base_matching(strassen(), "A")
        v, w = next(iter(guaranteed_dependencies(g2, side="A")))
        chain = dependency_chain(g2, v, w, matching)
        assert len(chain) == 2 * g2.r + 2

    def test_chain_monotone_ranks(self, g2):
        matching = base_matching(strassen(), "B")
        v, w = next(iter(guaranteed_dependencies(g2, side="B")))
        chain = dependency_chain(g2, v, w, matching)
        ranks = g2.rank[chain]
        assert (np.diff(ranks) == 1).all()

    def test_non_dependence_raises(self, g2):
        matching = base_matching(strassen(), "A")
        # a_00 and c_10 do not share a row: not guaranteed.
        from repro.routing import input_row_col, output_row_col

        v = next(
            x for x in g2.inputs("A").tolist()
            if input_row_col(g2, x)[1:] == (0, 0)
        )
        w = next(
            y for y in g2.outputs().tolist()
            if output_row_col(g2, y) == (1, 0)
        )
        with pytest.raises(RoutingError):
            dependency_chain(g2, v, w, matching)

    @pytest.mark.parametrize("entry", [((0, 0), 7), ((0, -1), 0), ((4, 0), 0)],
                             ids=["multiplication", "negative_entry", "entry_past_a"])
    def test_matching_entry_out_of_range_raises(self, g2, entry):
        """A caller-supplied matching must name entries in [0, a) and
        multiplications in [0, b): a dense table would silently wrap or
        build ids outside the slab otherwise."""
        key, m = entry
        matching = {**base_matching(strassen(), "A"), key: m}
        v, w = next(iter(guaranteed_dependencies(g2, side="A")))
        with pytest.raises(ValueError, match="out of range"):
            dependency_chain(g2, v, w, matching)
        with pytest.raises(ValueError, match="out of range"):
            lemma3_routing(g2, side="A", matchings={"A": matching})

    def test_non_input_raises(self, g2):
        matching = base_matching(strassen(), "A")
        with pytest.raises(RoutingError):
            dependency_chain(
                g2, int(g2.products()[0]), int(g2.outputs()[0]), matching
            )


class TestLemma3Routing:
    def test_covers_all_dependencies(self, g2, chains2):
        assert len(chains2) == count_guaranteed_dependencies(g2)
        declared = set(chains2.endpoints)
        expected = set(guaranteed_dependencies(g2))
        assert declared == expected

    def test_vertex_bound_2n0k(self, g2, chains2):
        """Lemma 3's claim: a 2 n0^k-routing."""
        bound = 2 * 2**g2.r
        report = verify_routing(g2, chains2, bound)
        assert report.max_vertex_hits <= bound

    def test_meta_bound(self, g2, chains2):
        meta = compute_metavertices(g2)
        bound = 2 * 2**g2.r
        report = verify_routing(g2, chains2, bound, meta=meta)
        assert report.max_meta_hits <= bound

    def test_single_side_bound_n0k(self, g2):
        routing = lemma3_routing(g2, side="A")
        report = verify_routing(g2, routing, 2**g2.r)
        assert report.max_vertex_hits <= 2**g2.r

    @pytest.mark.parametrize(
        "maker,k",
        [(winograd, 2), (laderman, 1), (lambda: classical(2), 2)],
        ids=["winograd", "laderman", "classical"],
    )
    def test_other_algorithms(self, maker, k):
        alg = maker()
        g = build_cdag(alg, k)
        routing = lemma3_routing(g)
        verify_routing(g, routing, 2 * alg.n0**k)

    def test_claim2_lifting_k3(self):
        """The m^k growth of Claim 2: bound 2 n0^3 at k = 3."""
        g = build_cdag(strassen(), 3)
        routing = lemma3_routing(g)
        report = verify_routing(g, routing, 2 * 2**3)
        assert report.max_vertex_hits <= 16


class TestLemma4Routing:
    def test_covers_all_pairs(self, g2, chains2):
        routing = lemma4_routing(g2, chains2)
        assert len(routing) == len(g2.inputs()) * len(g2.outputs())
        declared = set(routing.endpoints)
        expected = {
            (int(v), int(w)) for v in g2.inputs() for w in g2.outputs()
        }
        assert declared == expected

    def test_paths_valid(self, g2, chains2):
        routing = lemma4_routing(g2, chains2)
        for path in routing.paths[:50]:
            verify_path(g2, path)

    def test_chain_usage_exactly_3n0k(self, g2, chains2):
        """Lemma 4: each guaranteed-dependence chain is used exactly
        3 n0^k times."""
        usage = chain_usage_counts(g2, chains2)
        expected = 3 * 2**g2.r
        assert set(usage.values()) == {expected}

    def test_usage_counts_match_materialised_routing(self, g2, chains2):
        """The symbolic counts agree with brute-force piece counting on
        the materialised paths (sanity of the bookkeeping)."""
        usage = chain_usage_counts(g2, chains2)
        total_pieces = sum(usage.values())
        routing = lemma4_routing(g2, chains2)
        assert total_pieces == 3 * len(routing)

    def test_vertex_bound_6ak(self, g2, chains2):
        routing = lemma4_routing(g2, chains2)
        report = verify_routing(g2, routing, 6 * 4**g2.r)
        assert report.max_vertex_hits <= 6 * 4**g2.r

    @pytest.mark.parametrize("drop", ["one_chain", "all_chains_of_one_input"])
    @pytest.mark.parametrize("fn", [chain_usage_counts, lemma4_routing],
                             ids=["chain_usage_counts", "lemma4_routing"])
    def test_missing_chain_raises_routing_error(self, fn, drop):
        """A chains routing that lacks a guaranteed dependence is rejected
        with a RoutingError naming the chain (a_00 -> c_00 here)."""
        g1 = build_cdag(strassen(), 1)
        chains = lemma3_routing(g1)
        v0, _ = chains.endpoints[0]
        keep = [
            i for i, (v, _) in enumerate(chains.endpoints)
            if (i != 0 if drop == "one_chain" else v != v0)
        ]
        partial = Routing(
            g1,
            [chains.paths[i] for i in keep],
            [chains.endpoints[i] for i in keep],
        )
        with pytest.raises(RoutingError, match=r"chain A\[0,0\] -> C\[0,0\]"):
            fn(g1, partial)

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_junction_mismatch_raises_routing_error(self, end):
        """Chains that do not meet at their shared input (first vertex)
        or output (last vertex) cannot be concatenated."""
        g1 = build_cdag(strassen(), 1)
        chains = lemma3_routing(g1)
        b0 = len(chains) // 2  # the first B chain
        path = chains.paths[b0].copy()
        path[0 if end == "first" else -1] += 1
        chains.paths[b0] = path
        with pytest.raises(RoutingError, match="junction mismatch"):
            lemma4_routing(g1, chains)
