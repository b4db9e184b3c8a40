"""Hypothesis property suite for configuration grids.

Random ``(graph family, schedule, policy, cache size)`` grids run as
one :meth:`CacheExecutor.run_many` batch (count-only LRU and Belady rows
from their passes, FIFO rows on the loop) must be bit-identical, row
for row, to

- the simulation loop (:func:`simcore.pyloops.simulate_py`), one
  configuration at a time,
- the frozen golden reference (``tests/pebbling/_reference.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.bilinear import strassen, winograd
from repro.cdag import build_cdag
from repro.errors import CacheError
from repro.pebbling import CacheExecutor, min_cache_size
from repro.simcore import POLICIES, SchedulePlan
from repro.simcore.pyloops import simulate_py
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
)

from tests.pebbling._reference import reference_run

_GRAPHS = {}


def graph(family: str):
    if family not in _GRAPHS:
        _GRAPHS[family] = build_cdag(
            strassen() if family == "strassen" else winograd(), 2
        )
    return _GRAPHS[family]


def make_schedule(g, kind: str, seed: int):
    if kind == "topo":
        return random_topological_schedule(g, seed=seed)
    return random_product_order_schedule(g, seed=seed)


def masks(g):
    is_input = g.in_degree() == 0
    is_output = np.zeros(g.n_vertices, dtype=bool)
    is_output[g.outputs()] = True
    return is_input, is_output


#: The smallest cache every schedule of both families runs in (5).  The
#: smaller the cache, the more often the fallback's FIFO victim scan
#: finds a pinned entry at the head of its recency queue: on random
#: schedules, ~5% of evictions at M = 5 against ~3% at M = 8.
MIN_M = max(min_cache_size(graph(f)) for f in ("strassen", "winograd"))

configs_strategy = st.lists(
    st.tuples(st.integers(min_value=MIN_M, max_value=64),
              st.sampled_from(POLICIES)),
    min_size=1, max_size=5,
)


def reference_counts(g, sched, M, policy):
    res, evictions = reference_run(g, sched, M, policy)
    return (res.reads, res.writes, res.input_reads, res.spill_reads,
            res.spill_writes, res.output_writes, res.peak_cache, evictions)


def run_many_spans(g, sched, cache_sizes, policies):
    """One ``run_many`` batch over an unvalidated schedule, with
    telemetry on: its results and its ``pebbling.run`` span records."""
    telemetry.enable()
    telemetry.reset()
    try:
        results = CacheExecutor(g).run_many(sched, cache_sizes, policies,
                                            validate=False)
        spans = [s for s in telemetry.collected_spans()
                 if s["name"] == "pebbling.run"]
    finally:
        telemetry.disable()
        telemetry.reset()
    return results, spans


def grid_rows(g, sched, configs):
    """One ``run_many`` batch over the cache sizes and policies of
    ``configs``: each configuration's ``IOResult`` fields in count-tuple
    order, plus the evictions its ``pebbling.run`` span counted."""
    results, spans = run_many_spans(g, sched, sorted({M for M, _ in configs}),
                                    sorted({p for _, p in configs}))
    evictions = {(s["attrs"]["cache_size"], s["attrs"]["policy"]):
                 s["counters"]["evictions"] for s in spans}
    rows = []
    for config in configs:
        res = results[config]
        rows.append((res.reads, res.writes, res.input_reads,
                     res.spill_reads, res.spill_writes, res.output_writes,
                     res.peak_cache, evictions[config]))
    return rows


class TestGridProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(["strassen", "winograd"]),
        st.sampled_from(["topo", "product"]),
        st.integers(min_value=0, max_value=2**31 - 1),
        configs_strategy,
    )
    def test_grid_rows_bit_identical_everywhere(
        self, family, kind, seed, configs
    ):
        g = graph(family)
        sched = make_schedule(g, kind, seed)
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, sched, validated=False)
        rows = grid_rows(g, sched, configs)
        for (M, policy), row in zip(configs, rows):
            want = reference_counts(g, sched, M, policy)
            assert row == want, (M, policy)
            assert simulate_py(plan, is_input, is_output, M, policy) == want

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=8, max_value=48),
    )
    def test_duplicate_rows_agree(self, seed, M):
        """The same configuration repeated across the grid — interleaved
        with different neighbours — always produces the same row."""
        g = graph("strassen")
        sched = make_schedule(g, "topo", seed)
        _, spans = run_many_spans(g, sched, [M, M + 8, M, 8, M], POLICIES)
        for policy in POLICIES:
            rows = [s["counters"] for s in spans
                    if s["attrs"] == {"policy": policy, "cache_size": M}]
            assert len(rows) >= 3
            assert all(row == rows[0] for row in rows)

    @pytest.mark.parametrize("policy", POLICIES, ids=["0", "1", "2"])
    def test_failed_row_does_not_stop_the_grid(self, policy):
        """The loop raises CacheError under every policy at M = 1, which
        fails at the first step, and one below ``min_cache_size``,
        which fails only at a step whose operands and result fill the
        cache (product order 4 reaches such a step with a cached
        operand).  The executor refuses a grid holding such a size
        before any configuration runs; the grid's other sizes, run
        alone, match the reference."""
        g = graph("strassen")
        is_input, is_output = masks(g)
        small = (1, min_cache_size(g) - 1)
        for sched in (make_schedule(g, "topo", 7),
                      make_schedule(g, "product", 4)):
            plan = SchedulePlan(g, sched, validated=False)
            for M in small:
                with pytest.raises(CacheError):
                    simulate_py(plan, is_input, is_output, M, policy)
                telemetry.enable()
                telemetry.reset()
                try:
                    with pytest.raises(CacheError):
                        CacheExecutor(g).run_many(sched, (24, M), (policy,),
                                                  validate=False)
                    assert telemetry.collected_spans() == []
                finally:
                    telemetry.disable()
                    telemetry.reset()
            assert grid_rows(g, sched, [(24, policy)]) == [
                reference_counts(g, sched, 24, policy)
            ]
