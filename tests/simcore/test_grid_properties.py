"""Hypothesis property suite for the lockstep grid kernel.

Random ``(graph family, schedule, policy, cache size)`` grids must be
bit-identical, row for row, to

- single-configuration kernel runs (:func:`simcore.grid.simulate_plan`),
- the pure-Python fallback loops (:func:`simcore.pyloops.simulate_py`),
- the frozen golden reference (``tests/pebbling/_reference.py``),

on every dispatch path available in this environment (``off`` and
``interp`` always; ``jit`` when numba is installed — the compiled CI leg
runs all three).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import strassen, winograd
from repro.cdag import build_cdag
from repro.errors import CacheError
from repro.pebbling import min_cache_size
from repro.simcore import HAVE_NUMBA, SchedulePlan, forced_mode
from repro.simcore.grid import run_grid, simulate_plan
from repro.simcore.policies import SC_LEN, STATUS, STATUS_NO_VICTIM, STATUS_OK
from repro.simcore.pyloops import simulate_py
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
)

from tests.pebbling._reference import reference_run

MODES = ["off", "interp"] + (["jit"] if HAVE_NUMBA else [])
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


class TestGridLockstepProperties:
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
        iu8 = np.ascontiguousarray(is_input).view(np.uint8)
        ou8 = np.ascontiguousarray(is_output).view(np.uint8)
        plan = SchedulePlan(g, sched, validated=False)
        arrays = plan.kernel_arrays()
        Ms = np.array([m for m, _ in configs], dtype=np.int64)
        codes = np.array([c for _, c in configs], dtype=np.int64)

        # Golden reference and fallback loops, once per configuration.
        want = []
        for M, code in configs:
            res, evictions = reference_run(
                g, sched, int(M), POLICY_NAMES[code]
            )
            want.append((
                res.reads, res.writes, res.input_reads, res.spill_reads,
                res.spill_writes, res.output_writes, res.peak_cache,
                evictions,
            ))
            py = simulate_py(plan, is_input, is_output, int(M), int(code))
            assert tuple(int(x) for x in py) == want[-1]

        for mode in MODES:
            with forced_mode(mode):
                out = run_grid(arrays, iu8, ou8, Ms, codes)
                assert out.shape == (len(configs), SC_LEN)
                for j, (M, code) in enumerate(configs):
                    assert int(out[j, STATUS]) == STATUS_OK
                    assert tuple(int(x) for x in out[j, :8]) == want[j], (
                        f"mode={mode} config={configs[j]}"
                    )
                    single = simulate_plan(arrays, iu8, ou8, int(M),
                                           int(code))
                    assert np.array_equal(single, out[j]), (
                        f"mode={mode} config={configs[j]}"
                    )

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
        iu8 = np.ascontiguousarray(is_input).view(np.uint8)
        ou8 = np.ascontiguousarray(is_output).view(np.uint8)
        arrays = SchedulePlan(g, sched, validated=False).kernel_arrays()
        Ms = np.array([M, M + 8, M, 8, M], dtype=np.int64)
        codes = np.array([2, 0, 2, 1, 2], dtype=np.int64)
        with forced_mode("interp"):
            out = run_grid(arrays, iu8, ou8, Ms, codes)
        assert np.array_equal(out[0], out[2])
        assert np.array_equal(out[0], out[4])

    @pytest.mark.parametrize("code", sorted(POLICY_NAMES))
    @pytest.mark.parametrize("mode", MODES)
    def test_failed_row_does_not_stop_the_grid(self, mode, code):
        """Rows with an impossibly small cache go non-OK under every
        policy; their neighbours still finish with correct counts, and the
        fallback loop raises for the same configurations.  M = 1 fails at
        the first step; one below ``min_cache_size`` fails only at a step
        whose operands and result fill the cache, when the eviction heap
        holds the pinned operands' entries from earlier steps (product
        order 4 reaches such a step with a cached operand)."""
        g = graph("strassen")
        is_input, is_output = masks(g)
        iu8 = np.ascontiguousarray(is_input).view(np.uint8)
        ou8 = np.ascontiguousarray(is_output).view(np.uint8)
        Ms = np.array([1, min_cache_size(g) - 1, 24], dtype=np.int64)
        codes = np.full(len(Ms), code, dtype=np.int64)
        for sched in (make_schedule(g, "topo", 7),
                      make_schedule(g, "product", 4)):
            plan = SchedulePlan(g, sched, validated=False)
            with forced_mode(mode):
                out = run_grid(plan.kernel_arrays(), iu8, ou8, Ms, codes)
            assert [int(s) for s in out[:, STATUS]] == [
                STATUS_NO_VICTIM, STATUS_NO_VICTIM, STATUS_OK,
            ]
            res, evictions = reference_run(g, sched, 24, POLICY_NAMES[code])
            assert tuple(int(x) for x in out[2, :8]) == (
                res.reads, res.writes, res.input_reads, res.spill_reads,
                res.spill_writes, res.output_writes, res.peak_cache,
                evictions,
            )
            for M in Ms[:2].tolist():
                with pytest.raises(CacheError):
                    simulate_py(plan, is_input, is_output, M, code)
