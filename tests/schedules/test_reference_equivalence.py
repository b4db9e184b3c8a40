"""Golden-equivalence tests: :func:`demand_driven_schedule` must emit
byte-identical schedules to the frozen generator kept in
``tests/schedules/_reference.py``.

The grid covers Strassen, Winograd and classical(2) at r = 1..4 with
lexicographic (the recursive schedule), reversed and hypothesis-drawn
product orders, plus every loop order of :func:`loop_order_schedule`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import classical, strassen, winograd
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
