"""Hypothesis property suite for configuration grids.

Random ``(graph family, schedule, policy, cache size)`` grids run as
one :func:`simcore.run_configs` batch (count-only LRU and Belady rows
from their passes, FIFO rows on the loop) must be bit-identical, row
for row, to

- the simulation loop (:func:`simcore.pyloops.simulate_py`), one
  configuration at a time,
- the frozen golden reference (``tests/pebbling/_reference.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import strassen, winograd
from repro.cdag import build_cdag
from repro.errors import CacheError
from repro.pebbling import min_cache_size
from repro.simcore import SchedulePlan, run_configs
from repro.simcore.pyloops import simulate_py
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
)

from tests.pebbling._reference import reference_run

POLICY_NAMES = {0: "lru", 1: "fifo", 2: "belady"}

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
              st.sampled_from([0, 1, 2])),
    min_size=1, max_size=5,
)


def reference_counts(g, sched, M, code):
    res, evictions = reference_run(g, sched, M, POLICY_NAMES[code])
    return (res.reads, res.writes, res.input_reads, res.spill_reads,
            res.spill_writes, res.output_writes, res.peak_cache, evictions)


def grid_rows(plan, is_input, is_output, configs):
    """One ``run_configs`` batch: each row's count tuple, or the
    exception it raised at its own ``next()``."""
    counts = run_configs(plan, is_input, is_output,
                         [(M, POLICY_NAMES[code]) for M, code in configs])
    rows = []
    for _ in configs:
        try:
            rows.append(next(counts))
        except CacheError as exc:
            rows.append(exc)
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
        rows = grid_rows(plan, is_input, is_output, configs)
        for (M, code), row in zip(configs, rows):
            want = reference_counts(g, sched, M, code)
            assert row == want, (M, code)
            assert simulate_py(plan, is_input, is_output, M, code) == want

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
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, sched, validated=False)
        for code in sorted(POLICY_NAMES):
            configs = [(M, code), (M + 8, 0), (M, code), (8, 1), (M, code)]
            rows = grid_rows(plan, is_input, is_output, configs)
            assert rows[0] == rows[2] == rows[4]

    @pytest.mark.parametrize("code", sorted(POLICY_NAMES))
    def test_failed_row_does_not_stop_the_grid(self, code):
        """Rows with an impossibly small cache raise CacheError under
        every policy; their neighbours still finish with correct counts,
        and the loop raises for the same configurations.  M = 1 fails at
        the first step; one below ``min_cache_size`` fails only at a step
        whose operands and result fill the cache (product order 4
        reaches such a step with a cached operand)."""
        g = graph("strassen")
        is_input, is_output = masks(g)
        configs = [(1, code), (min_cache_size(g) - 1, code), (24, code)]
        for sched in (make_schedule(g, "topo", 7),
                      make_schedule(g, "product", 4)):
            plan = SchedulePlan(g, sched, validated=False)
            rows = grid_rows(plan, is_input, is_output, configs)
            assert [type(r) for r in rows[:2]] == [CacheError, CacheError]
            assert rows[2] == reference_counts(g, sched, 24, code)
            for M, _ in configs[:2]:
                with pytest.raises(CacheError):
                    simulate_py(plan, is_input, is_output, M, code)
