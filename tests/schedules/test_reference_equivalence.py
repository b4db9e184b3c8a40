"""Golden-equivalence tests: :func:`demand_driven_schedule` must emit
byte-identical schedules to the frozen generator kept in
``tests/schedules/_reference.py``.

The grid covers Strassen, Winograd and classical(2) at r = 1..4 with
lexicographic (the recursive schedule), reversed and hypothesis-drawn
product orders, plus every loop order of :func:`loop_order_schedule`.
It also covers the other catalog bases, the assumption-violating
Strassen variants and the named compositions at small r, Strassen's
n = 32 recursive schedule, the autotuner's hybrid orders, and two
degenerate graphs on which both generators must raise the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune.genome import GenomeContext, hybrid_order
from repro.bilinear import (
    BilinearAlgorithm,
    classical,
    laderman,
    strassen,
    strassen_peeled,
    winograd,
)
from repro.bilinear.compose import named_compositions
from repro.bilinear.synthetic import (
    make_single_use,
    with_duplicate_product,
    with_split_output,
)
from repro.cdag import build_cdag
from repro.errors import ScheduleError
from repro.schedules import blocked, demand_driven_schedule, loop_order_schedule

from ._reference import demand_driven_schedule as reference_schedule

ALGS = {
    "strassen": strassen,
    "winograd": winograd,
    "classical2": lambda: classical(2),
}
DEPTHS = (1, 2, 3, 4)
LOOP_ORDERS = ("ijk", "ikj", "jik", "jki", "kij", "kji")

_GRAPHS = {}


def graph(name: str, r: int):
    if (name, r) not in _GRAPHS:
        _GRAPHS[name, r] = build_cdag(ALGS[name](), r)
    return _GRAPHS[name, r]


def assert_same_schedule(g, order):
    got = demand_driven_schedule(g, order)
    want = reference_schedule(g, order)
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["lexicographic", "reversed"])
@pytest.mark.parametrize("r", DEPTHS)
@pytest.mark.parametrize("name", sorted(ALGS))
def test_fixed_orders_match_reference(name, r, kind):
    g = graph(name, r)
    order = np.arange(len(g.products()))
    if kind == "reversed":
        order = order[::-1]
    assert_same_schedule(g, order)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(ALGS)), st.sampled_from(DEPTHS), st.data())
def test_drawn_orders_match_reference(name, r, data):
    """Small product sets are drawn as shrinkable permutations; the
    larger ones as seeded shuffles."""
    g = graph(name, r)
    n_products = len(g.products())
    if n_products <= 64:
        order = data.draw(st.permutations(range(n_products)))
    else:
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        order = np.random.default_rng(seed).permutation(n_products)
    assert_same_schedule(g, np.asarray(order))


@pytest.mark.parametrize("order", LOOP_ORDERS)
@pytest.mark.parametrize("r", DEPTHS)
def test_loop_orders_match_reference(r, order, monkeypatch):
    g = graph("classical2", r)
    got = loop_order_schedule(g, order)
    monkeypatch.setattr(blocked, "demand_driven_schedule", reference_schedule)
    want = loop_order_schedule(g, order)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "generator", [demand_driven_schedule, reference_schedule],
    ids=["current", "reference"],
)
@pytest.mark.parametrize("bad", ["repeated", "short", "out_of_range"])
def test_non_permutation_raises(generator, bad):
    g = graph("strassen", 2)
    n_products = len(g.products())
    order = {
        "repeated": np.zeros(n_products, dtype=np.int64),
        "short": np.arange(n_products - 1),
        "out_of_range": np.arange(1, n_products + 1),
    }[bad]
    with pytest.raises(ScheduleError, match="permutation"):
        generator(g, order)


# Other catalog bases and the compositions at r <= 2; Strassen's
# assumption-violating variants at r <= 3.
EXTRA_CASES = [
    pytest.param(alg, r, id=f"{alg.name}-{r}")
    for algs, depths in (
        ([laderman(), classical(3), strassen_peeled(), *named_compositions()],
         (1, 2)),
        ([with_duplicate_product(strassen()), with_split_output(strassen()),
          make_single_use(strassen())], (1, 2, 3)),
    )
    for alg in algs
    for r in depths
]


@pytest.mark.parametrize("kind", ["lexicographic", "reversed", "shuffled"])
@pytest.mark.parametrize("alg,r", EXTRA_CASES)
def test_more_algorithms_match_reference(alg, r, kind):
    g = build_cdag(alg, r)
    order = np.arange(len(g.products()))
    if kind == "reversed":
        order = order[::-1]
    elif kind == "shuffled":
        order = np.random.default_rng(r).permutation(order)
    assert_same_schedule(g, order)


def test_recursive_schedule_at_n32_matches_reference():
    """Strassen at r = 5, lexicographic: the n = 32 recursive schedule
    the I/O experiments and benchmarks run."""
    g = graph("strassen", 5)
    assert_same_schedule(g, np.arange(len(g.products())))


@pytest.mark.parametrize("d", range(5))
def test_hybrid_orders_match_reference(d):
    g = graph("strassen", 4)
    ctx = GenomeContext(n_products=len(g.products()), b=g.b, r=g.r)
    assert_same_schedule(g, hybrid_order(ctx, d))


@pytest.mark.parametrize("order_kind", ["lexicographic", "reversed"])
@pytest.mark.parametrize(
    "zeroed,emitted",
    [
        # Products never demand the rank-1 A vertices with e_2 = 1.
        ("U column 1", "240 of 247"),
        # The rank-2 decoders whose operands are all inputs (W row 0
        # makes operand-free, input decoders) are never released.
        ("W row 0", "233 of 236"),
    ],
)
def test_degenerate_graphs_raise_the_reference_error(zeroed, emitted, order_kind):
    base = strassen()
    U, W = base.U.copy(), base.W.copy()
    if zeroed == "U column 1":
        U[:, 1] = 0
    else:
        W[0, :] = 0
    g = build_cdag(
        BilinearAlgorithm(n0=2, U=U, V=base.V, W=W, name="degenerate"), 2
    )
    order = np.arange(len(g.products()))
    if order_kind == "reversed":
        order = order[::-1]
    message = f"demand-driven emission incomplete: {emitted}"
    for generator in (reference_schedule, demand_driven_schedule):
        with pytest.raises(ScheduleError) as excinfo:
            generator(g, order)
        assert str(excinfo.value) == message
