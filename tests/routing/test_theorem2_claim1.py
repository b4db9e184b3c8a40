"""Tests for the Routing Theorem (Theorem 2) and Claim 1."""

import pytest

from repro.bilinear import (
    classical,
    laderman,
    strassen,
    strassen_x_classical,
    winograd,
)
from repro.bilinear.synthetic import with_duplicate_product
from repro.cdag import build_cdag
from repro.errors import RoutingError
from repro.routing import (
    claim1_bound,
    claim1_routing,
    decoder_local_paths,
    theorem2_bound,
    theorem2_certificate,
    theorem2_routing,
    verify_routing,
)


class TestTheorem2:
    @pytest.mark.parametrize(
        "maker,k",
        [
            (strassen, 1),
            (strassen, 2),
            (winograd, 1),
            (winograd, 2),
            (laderman, 1),
            (lambda: classical(2), 2),
            (strassen_x_classical, 1),
        ],
        ids=[
            "strassen-k1", "strassen-k2", "winograd-k1", "winograd-k2",
            "laderman-k1", "classical-k2", "sxc-k1",
        ],
    )
    def test_certificate(self, maker, k):
        """Full verified 6a^k-routing across the catalog — including the
        disconnected-decoder composition (the case beyond [6])."""
        alg = maker()
        cert = theorem2_certificate(alg, k)
        assert cert.report.within_bound
        assert cert.chains_used_exactly_3n0k
        assert cert.lemma3_max_hits <= 2 * alg.n0**k

    def test_bound_formula(self):
        assert theorem2_bound(strassen(), 3) == 6 * 64

    def test_routing_from_cdag(self):
        g = build_cdag(strassen(), 1)
        routing = theorem2_routing(g)
        assert len(routing) == 8 * 4

    def test_routing_from_algorithm(self):
        routing = theorem2_routing(strassen(), k=1)
        assert len(routing) == 32

    def test_missing_k_raises(self):
        with pytest.raises(RoutingError):
            theorem2_routing(strassen())

    def test_single_use_violation_rejected(self):
        dup = with_duplicate_product(strassen(), product=0)
        with pytest.raises(RoutingError, match="single-use"):
            theorem2_routing(dup, k=1)

    def test_strassen_bound_is_tight_at_vertices(self):
        """For Strassen the measured maximum hit count equals 6 a^k —
        the theorem's constant is exactly attained (at the outputs)."""
        cert = theorem2_certificate(strassen(), 2)
        assert cert.report.max_vertex_hits == cert.claimed_m

    def test_meta_bound_never_exceeds_vertex_count(self):
        cert = theorem2_certificate(strassen(), 2)
        assert cert.report.max_meta_hits <= cert.report.max_vertex_hits


class TestClaim1:
    @pytest.mark.parametrize("k", [1, 2])
    def test_strassen_decoder_routing(self, k):
        g = build_cdag(strassen(), k)
        routing = claim1_routing(g)
        report = verify_routing(g, routing, claim1_bound(strassen(), k))
        assert report.within_bound
        assert report.n_paths == 7**k * 4**k

    def test_bound_value(self):
        # |V(D_1)| = 11 for Strassen: the paper's 11 * 7^k.
        assert claim1_bound(strassen(), 2) == 11 * 49

    def test_paths_stay_in_decoder(self):
        from repro.cdag import Region

        g = build_cdag(strassen(), 2)
        routing = claim1_routing(g)
        for path in routing.paths[:100]:
            assert (g.region[path] == Region.DEC).all()

    def test_endpoints_are_products_and_outputs(self):
        g = build_cdag(strassen(), 1)
        routing = claim1_routing(g)
        products = set(g.products().tolist())
        outputs = set(g.outputs().tolist())
        for src, dst in routing.endpoints:
            assert src in products
            assert dst in outputs

    def test_disconnected_decoder_raises(self):
        """Classical's decoder is disconnected: Claim 1's construction
        must fail — the Section 6 motivation."""
        with pytest.raises(RoutingError, match="disconnected"):
            decoder_local_paths(classical(2))

    def test_strassen_x_classical_decoder_raises(self):
        g = build_cdag(strassen_x_classical(), 1)
        with pytest.raises(RoutingError, match="disconnected"):
            claim1_routing(g)

    def test_winograd_decoder_routing(self):
        g = build_cdag(winograd(), 2)
        routing = claim1_routing(g)
        report = verify_routing(g, routing, claim1_bound(winograd(), 2))
        assert report.within_bound

    def test_local_paths_alternate(self):
        paths = decoder_local_paths(strassen())
        for (m, e), walk in paths.items():
            assert walk[0] == m
            assert walk[-1] == -(e + 1)
            # Alternation: signs alternate along the walk.
            for x, y in zip(walk, walk[1:]):
                assert (x >= 0) != (y >= 0)

    def test_requires_standalone_gk(self):
        g = build_cdag(strassen(), 2)
        with pytest.raises(RoutingError):
            claim1_routing(g, k=1)
