"""Hypothesis property suite for :class:`SchedulePlan`'s arrays.

Every array a plan compiles — the operand occurrences in CSR form, the
per-occurrence next-use times, the per-vertex first-use times and use
counts — must equal what a plain per-occurrence Python loop derives
from the same ``(graph, schedule)`` pair, dtype included: the schedule
is int64 and every other array int32.  The graphs are Strassen,
Winograd and classical(2) at ``r <= 3``; the schedules are seeded
random topological orders and random product orders.  A validated
compile through :class:`CacheExecutor` reuses the validator's operand
gather and must give the same arrays.  Strassen at ``r = 5`` is the
smallest graph whose packed next-use key ``vertex << shift`` passes
``2**31``, so an int32 overflow there shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.schedules.base
import repro.simcore.plan
from repro.bilinear import classical, strassen, winograd
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
    recursive_schedule,
)
from repro.simcore import SchedulePlan, gather_operands

_ALGS = {"strassen": strassen, "winograd": winograd, "classical2": classical}
_GRAPHS = {}


def graph(family: str, r: int):
    if (family, r) not in _GRAPHS:
        _GRAPHS[(family, r)] = build_cdag(_ALGS[family](), r)
    return _GRAPHS[(family, r)]


def reference_arrays(g, schedule) -> dict[str, list[int]]:
    """The plan's arrays from one forward pass over the operands and one
    backward scan over the occurrences."""
    step_indptr, step_ops, occ_time = [0], [], []
    for t, v in enumerate(schedule.tolist()):
        for u in g.predecessors(v).tolist():
            step_ops.append(u)
            occ_time.append(t)
        step_indptr.append(len(step_ops))
    T = len(schedule)
    occ_next = [T] * len(step_ops)
    next_time: dict[int, int] = {}
    for i in reversed(range(len(step_ops))):
        v = step_ops[i]
        occ_next[i] = next_time.get(v, T)
        next_time[v] = occ_time[i]
    first_use = [T] * g.n_vertices
    uses_left0 = [0] * g.n_vertices
    for v, t in zip(step_ops, occ_time):
        first_use[v] = min(first_use[v], t)
        uses_left0[v] += 1
    return {
        "schedule": schedule.tolist(),
        "step_indptr": step_indptr,
        "step_ops": step_ops,
        "occ_next": occ_next,
        "first_use": first_use,
        "uses_left0": uses_left0,
    }


def assert_plan_arrays(g, schedule):
    plan = SchedulePlan(g, schedule, validated=True)
    compiled = CacheExecutor(g).compile(schedule)
    assert plan.n_steps == compiled.n_steps == len(schedule)
    for name, expected in reference_arrays(g, schedule).items():
        dtype = np.int64 if name == "schedule" else np.int32
        for got in (getattr(plan, name), getattr(compiled, name)):
            assert got.dtype == dtype, name
            assert got.tolist() == expected, name


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_ALGS)),
    r=st.integers(1, 3),
    kind=st.sampled_from(["topo", "product"]),
    seed=st.integers(0, 2**16),
)
def test_plan_arrays_match_per_occurrence_loop(family, r, kind, seed):
    g = graph(family, r)
    if kind == "topo":
        schedule = random_topological_schedule(g, seed=seed)
    else:
        schedule = random_product_order_schedule(g, seed=seed)
    assert_plan_arrays(g, schedule)


@pytest.mark.parametrize("order", ["recursive", "product"])
def test_plan_arrays_at_r5(order):
    """113,553 vertices and 223,010 occurrences: the next-use key
    ``vertex << 18`` passes ``2**34``."""
    g = graph("strassen", 5)
    schedule = (recursive_schedule(g) if order == "recursive"
                else random_product_order_schedule(g, seed=3))
    assert (g.n_vertices << len(g.pred_indices).bit_length()) > 2**31
    assert_plan_arrays(g, schedule)


def test_validated_compile_gathers_operands_once(monkeypatch):
    g = graph("strassen", 2)
    calls = []

    def counting(cdag, schedule):
        calls.append(len(schedule))
        return gather_operands(cdag, schedule)

    monkeypatch.setattr(repro.simcore.plan, "gather_operands", counting)
    monkeypatch.setattr(repro.schedules.base, "gather_operands", counting)
    CacheExecutor(g).compile(recursive_schedule(g))
    assert len(calls) == 1
