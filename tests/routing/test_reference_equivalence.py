"""Golden-equivalence tests: the array-built routings and the flat-view
verifier must reproduce the frozen per-path versions kept in
``tests/routing/_reference.py``.

Covers Strassen at k = 0..3, Winograd at k = 1..3, classical(2) at
k = 0..2, Laderman and strassen^2 at k = 1, and two single-use
violators (built as the Theorem-2 routing with
``allow_assumption_violation=True``):
paths byte-identical, endpoints, chain-usage dicts, vertex and
meta-vertex hit arrays and verification outcomes equal.  A hypothesis
test mutates valid routings and asserts both verifiers agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import (
    classical,
    laderman,
    strassen,
    strassen_squared,
    strassen_x_classical,
    winograd,
)
from repro.bilinear.synthetic import with_duplicate_product
from repro.cdag import build_cdag, compute_metavertices
from repro.errors import RoutingError
from repro.routing import (
    Routing,
    chain_usage_counts,
    dependency_chain,
    guaranteed_dependencies,
    input_row_col,
    lemma3_routing,
    output_row_col,
    theorem2_bound,
    theorem2_routing,
    verify_routing,
)
from repro.routing.hall import base_matching

from . import _reference as ref

CASES = {
    "strassen-k0": (strassen, 0),
    "strassen-k1": (strassen, 1),
    "strassen-k2": (strassen, 2),
    "strassen-k3": (strassen, 3),
    "winograd-k1": (winograd, 1),
    "winograd-k2": (winograd, 2),
    "winograd-k3": (winograd, 3),
    "classical2-k0": (lambda: classical(2), 0),
    "classical2-k1": (lambda: classical(2), 1),
    "classical2-k2": (lambda: classical(2), 2),
    "laderman-k1": (laderman, 1),
    "strassen2-k1": (strassen_squared, 1),
    "sxc-k1": (strassen_x_classical, 1),
    "dup0-k2": (lambda: with_duplicate_product(strassen(), product=0), 2),
}

_BUILT = {}


def built(case: str):
    """``(cdag, meta, (chains, routing), (reference chains, routing))``;
    the routings are Theorem 2's (Lemma 4 over the Lemma-3 chains)."""
    if case not in _BUILT:
        maker, k = CASES[case]
        alg = maker()
        g = build_cdag(alg, k)
        meta = compute_metavertices(g)
        chains = lemma3_routing(g)
        routing = theorem2_routing(g, allow_assumption_violation=True)
        ref_chains = ref.lemma3_routing(g)
        ref_routing = ref.lemma4_routing(g, ref_chains)
        ref_routing.label = f"theorem2 k={k} ({alg.name})"
        _BUILT[case] = g, meta, (chains, routing), (ref_chains, ref_routing)
    return _BUILT[case]


def outcome(fn, *args, **kwargs):
    """A call's result, or the message of the RoutingError it raised."""
    try:
        return fn(*args, **kwargs)
    except RoutingError as exc:
        return ("RoutingError", str(exc))


def assert_same_routing(got: Routing, want: Routing) -> None:
    assert got.label == want.label
    assert isinstance(got.paths, list) and isinstance(got.endpoints, list)
    assert len(got.paths) == len(want.paths)
    for p, q in zip(got.paths, want.paths):
        assert p.dtype == q.dtype == np.int64
        assert p.tobytes() == q.tobytes()
    assert got.endpoints == want.endpoints
    assert all(type(x) is int for pair in got.endpoints for x in pair)


@pytest.mark.parametrize("case", sorted(CASES))
def test_routings_match_reference(case):
    g, _, (chains, routing), (ref_chains, ref_routing) = built(case)
    assert list(guaranteed_dependencies(g)) == list(ref.guaranteed_dependencies(g))
    assert_same_routing(chains, ref_chains)
    assert_same_routing(routing, ref_routing)


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_usage_matches_reference(case):
    g, _, (chains, _), _ = built(case)
    got = chain_usage_counts(g, chains)
    want = ref.chain_usage_counts(g, chains)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("case", sorted(CASES))
def test_ledgers_and_reports_match_reference(case):
    g, meta, (chains, routing), _ = built(case)
    alg = g.alg
    pairs = {(v, w) for v in g.inputs().tolist() for w in g.outputs().tolist()}
    for r, bound, expected in (
        (chains, 2 * alg.n0**g.r, None),
        (routing, theorem2_bound(alg, g.r), pairs),
    ):
        np.testing.assert_array_equal(r.vertex_hits(), ref.vertex_hits(r))
        np.testing.assert_array_equal(r.meta_hits(meta), ref.meta_hits(r, meta))
        assert r.total_path_length() == sum(len(p) for p in r.paths)
        for m in (bound, bound // 2):
            got = outcome(verify_routing, g, r, m, meta=meta, expected_pairs=expected)
            want = outcome(ref.verify_routing, g, r, m, meta=meta, expected_pairs=expected)
            assert got == want


@pytest.mark.parametrize("side", ["A", "B"])
def test_dependency_chain_matches_reference_on_every_pair(side):
    """Every (input, output) pair of Strassen G_2, guaranteed or not:
    the same chain or the same RoutingError."""
    g = build_cdag(strassen(), 2)
    matching = base_matching(strassen(), side)
    for v in g.inputs().tolist():
        for w in g.outputs().tolist():
            got = outcome(dependency_chain, g, v, w, matching)
            want = outcome(ref.dependency_chain, g, v, w, matching)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()


def test_row_col_match_reference():
    g = build_cdag(laderman(), 2)
    for v in g.inputs().tolist():
        assert input_row_col(g, v) == ref.input_row_col(g, v)
    for w in g.outputs().tolist():
        assert output_row_col(g, w) == ref.output_row_col(g, w)
    with pytest.raises(ValueError):
        input_row_col(g, int(g.outputs()[0]))
    with pytest.raises(ValueError):
        output_row_col(g, int(g.inputs()[0]))


# ----------------------------------------------------------------------
# Mutated routings: both verifiers reject, or both report the same.
# ----------------------------------------------------------------------

MUTATIONS = ("replace", "drop", "swap", "out_of_range", "duplicate")


def _mutate(g, routing: Routing, kind: str, data) -> Routing:
    paths = [p.copy() for p in routing.paths]
    endpoints = list(routing.endpoints)
    p = data.draw(st.integers(0, len(paths) - 1), label="path")
    path = paths[p]
    if kind == "replace":
        i = data.draw(st.integers(0, len(path) - 1), label="position")
        path[i] = data.draw(st.integers(0, g.n_vertices - 1), label="vertex")
    elif kind == "drop":
        i = data.draw(st.integers(0, len(path) - 1), label="position")
        paths[p] = np.delete(path, i)
    elif kind == "swap":
        q = data.draw(st.integers(0, len(paths) - 1), label="other")
        endpoints[p], endpoints[q] = endpoints[q], endpoints[p]
    elif kind == "out_of_range":
        i = data.draw(st.integers(0, len(path) - 1), label="position")
        path[i] = data.draw(
            st.sampled_from([-1, -g.n_vertices, g.n_vertices, 2 * g.n_vertices + 3]),
            label="vertex",
        )
        if data.draw(st.booleans(), label="declare it"):
            endpoints[p] = (int(path[0]), int(path[-1]))
    else:
        paths.insert(p, path.copy())
        endpoints.insert(p, endpoints[p])
    return Routing(g, paths, endpoints, label=routing.label)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["strassen-k1", "winograd-k2", "classical2-k1"]),
    st.booleans(),
    st.sampled_from(MUTATIONS),
    st.sampled_from(["tight", "loose", "too small"]),
    st.booleans(),
    st.data(),
)
def test_mutated_routings_get_the_same_verdict(case, lemma4, kind, bound, with_pairs, data):
    g, meta, (chains, routing), _ = built(case)
    base = routing if lemma4 else chains
    mutated = _mutate(g, base, kind, data)
    m = base.max_vertex_hits()
    claimed = {"tight": m, "loose": 10 * m, "too small": m - 1}[bound]
    pairs = set(base.endpoints) if with_pairs else None
    got = want = None
    try:
        got = verify_routing(g, mutated, claimed, meta=meta, expected_pairs=pairs)
    except RoutingError:
        pass
    try:
        want = ref.verify_routing(g, mutated, claimed, meta=meta, expected_pairs=pairs)
    except RoutingError:
        pass
    assert got == want
