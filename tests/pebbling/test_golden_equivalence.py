"""Golden-equivalence tests: the array-backed executor must be
bit-identical to the pre-vectorisation reference simulator.

``tests/pebbling/_reference.py`` keeps the original set/dict executor
(with its original policy objects inlined) verbatim.  These tests run
both simulators over a grid of schedules x policies x cache sizes and
assert that every ``IOResult`` field, the eviction count and the full
cumulative ``io_trace`` agree exactly — not approximately.  Any
divergence in victim selection shows up here long before it would bend
an experiment curve.

Each configuration runs twice: once with an ``io_trace``, which takes
the simulation loop (:mod:`repro.simcore.pyloops`) for every policy,
and once counting only, which takes the LRU and Belady passes
(:mod:`repro.simcore.stack`) and the loop for FIFO.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.bilinear import classical, strassen
from repro.cdag import build_cdag
from repro.cdag.graph import CDAG
from repro.errors import CacheError
from repro.pebbling import CacheExecutor, min_cache_size
from repro.schedules import (
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)

from ._reference import reference_run

POLICIES = ("lru", "fifo", "belady")


def _reversed_rows(g):
    """``g`` with every predecessor row reversed.  ``build_cdag`` sorts
    each row and numbers a vertex above its operands, so only on this
    graph do a step's operands come out of id order: the one input on
    which the fallback's per-step sort of its recency stamps decides a
    victim."""
    indptr, indices = g.pred_csr()
    rows = [indices[a:b][::-1] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    return CDAG(g.alg, g.r, g.slabs, indptr, np.concatenate(rows), g.is_copy)


def _cases():
    """(label, cdag, schedule) grid: two algorithms, three schedule
    families, two recursion depths; plus Strassen r = 3, whose runs are
    ~8x longer (many more evictions and recency-queue trims per run),
    and Strassen r = 2 with reversed operand rows."""
    cases = []
    for alg_name, alg, rs in (("strassen", strassen(), (1, 2)),
                              ("classical", classical(2), (1, 2))):
        for r in rs:
            g = build_cdag(alg, r)
            cases.append((f"{alg_name}-r{r}-rec", g, recursive_schedule(g)))
            cases.append((f"{alg_name}-r{r}-rank", g, rank_order_schedule(g)))
            cases.append(
                (f"{alg_name}-r{r}-rand", g, random_topological_schedule(g, seed=7))
            )
    g = build_cdag(strassen(), 3)
    cases.append(("strassen-r3-rec", g, recursive_schedule(g)))
    cases.append(("strassen-r3-rand", g, random_topological_schedule(g, seed=7)))
    g = _reversed_rows(build_cdag(strassen(), 2))
    cases.append(("strassen-r2-revrows-rand", g, random_topological_schedule(g, seed=7)))
    return cases


CASES = _cases()


@pytest.fixture()
def telemetry_on():
    """Telemetry state is process-global: enable it for one test."""
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.reset()


def _run(ex, sched, cache_size, policy, io_trace=None):
    """``ex.run``'s result and the evictions its ``pebbling.run`` span
    counted."""
    telemetry.reset()
    res = ex.run(sched, cache_size, policy, io_trace=io_trace)
    (sp,) = [s for s in telemetry.collected_spans() if s["name"] == "pebbling.run"]
    return res, sp["counters"]["evictions"]


@pytest.mark.parametrize("label,g,sched", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("policy", POLICIES)
def test_bit_identical_to_reference(label, g, sched, policy, telemetry_on):
    ex = CacheExecutor(g)
    m0 = min_cache_size(g)
    for cache_size in (m0, m0 + 3, 2 * m0, g.n_vertices + 1):
        trace_new: list[int] = []
        trace_ref: list[int] = []
        res_new, ev_new = _run(ex, sched, cache_size, policy, trace_new)
        res_ref, ev_ref = reference_run(
            g, sched, cache_size, policy, io_trace=trace_ref
        )
        assert res_new == res_ref, (label, policy, cache_size)
        assert ev_new == ev_ref, (label, policy, cache_size)
        assert trace_new == trace_ref, (label, policy, cache_size)
        # Count-only: LRU and Belady take their passes.
        res_cnt, ev_cnt = _run(ex, sched, cache_size, policy)
        assert res_cnt == res_ref, (label, policy, cache_size, "count-only")
        assert ev_cnt == ev_ref, (label, policy, cache_size, "count-only")


def test_run_many_matches_reference():
    """The batched sweep API returns the same results as one-at-a-time
    reference runs for every (cache_size, policy) configuration."""
    g = build_cdag(strassen(), 2)
    sched = recursive_schedule(g)
    cache_sizes = (8, 12, 24)
    results = CacheExecutor(g).run_many(sched, cache_sizes, POLICIES)
    assert set(results) == {(M, p) for M in cache_sizes for p in POLICIES}
    for (M, policy), res in results.items():
        ref, _ = reference_run(g, sched, M, policy)
        assert res == ref, (M, policy)


def test_run_matches_run_many():
    """run() and run_many() share the executor's plan and agree
    exactly."""
    g = build_cdag(strassen(), 2)
    sched = recursive_schedule(g)
    ex = CacheExecutor(g)
    many = ex.run_many(sched, (8, 24), ("lru", "belady"))
    for (M, policy), res in many.items():
        assert ex.run(sched, M, policy) == res


def test_unknown_policy_is_a_cache_error():
    """run() and run_many() reject an unknown policy name with the same
    CacheError."""
    g = build_cdag(strassen(), 1)
    sched = recursive_schedule(g)
    ex = CacheExecutor(g)
    with pytest.raises(CacheError, match="lruu"):
        ex.run(sched, 12, "lruu")
    with pytest.raises(CacheError, match="lruu"):
        ex.run_many(sched, (8, 12), ("lru", "lruu"))
