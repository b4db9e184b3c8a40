"""Hypothesis property suite for the compiled pebbling kernels.

The kernel algorithm (:mod:`repro.simcore.grid`) must be
bit-for-bit identical to the retained reference simulator on *every*
observable — IOResult fields, eviction counts and the cumulative
``io_trace`` — not just on the curated golden grid.  These tests
generate random small workloads (algorithm x depth x schedule family x
seed x policy x cache size, including synthetic algorithm variants with
duplicate products and split outputs) and compare the kernel path
against ``tests/pebbling/_reference.py`` directly.

Without numba the kernels run under the plain interpreter (the
``interp`` mode) — the exact code numba would compile, minus the
compilation; with numba installed the same suite exercises the ``jit``
path, so CI's compiled leg gets the full property sweep for free.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import simcore
from repro.bilinear import classical, strassen, winograd
from repro.bilinear.synthetic import with_duplicate_product, with_split_output
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor, min_cache_size
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.simcore.policies import POLICY_CODES, STATUS, STATUS_OK

from ._reference import reference_run

KERNEL_MODE = "jit" if simcore.HAVE_NUMBA else "interp"

_GRAPH_CACHE: dict = {}


def _graph(family: str, r: int):
    """Small CDAGs, built once per (family, r) across all examples."""
    g = _GRAPH_CACHE.get((family, r))
    if g is None:
        alg = {
            "strassen": strassen,
            "winograd": winograd,
            "classical2": lambda: classical(2),
            "dup": lambda: with_duplicate_product(strassen(), 0),
            "split": lambda: with_split_output(strassen(), 0),
        }[family]()
        g = _GRAPH_CACHE[(family, r)] = build_cdag(alg, r)
    return g


def _schedule(g, family: str, seed: int) -> np.ndarray:
    return {
        "rec": lambda: recursive_schedule(g),
        "rank": lambda: rank_order_schedule(g),
        "rand": lambda: random_topological_schedule(g, seed=seed),
        "prod": lambda: random_product_order_schedule(g, seed=seed),
    }[family]()


workloads = st.tuples(
    st.sampled_from(["strassen", "winograd", "classical2", "dup", "split"]),
    st.sampled_from([1, 2]),
    st.sampled_from(["rec", "rank", "rand", "prod"]),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["lru", "fifo", "belady"]),
    st.integers(min_value=0, max_value=40),
)


class TestKernelBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(workloads)
    def test_matches_reference(self, workload):
        family, r, sched_family, seed, policy, m_extra = workload
        g = _graph(family, r)
        sched = _schedule(g, sched_family, seed)
        cache_size = min_cache_size(g) + m_extra
        trace_kernel: list[int] = []
        trace_ref: list[int] = []
        with simcore.forced_mode(KERNEL_MODE):
            res, ev = CacheExecutor(g)._run(
                sched, cache_size, policy, True, None, trace_kernel
            )
        ref, ev_ref = reference_run(
            g, sched, cache_size, policy, io_trace=trace_ref
        )
        assert res == ref
        assert ev == ev_ref
        assert trace_kernel == trace_ref

    @settings(max_examples=25, deadline=None)
    @given(workloads)
    def test_kernel_and_fallback_agree(self, workload):
        """The two executor paths agree with each other on arbitrary
        workloads (a direct A/B, independent of the reference)."""
        family, r, sched_family, seed, policy, m_extra = workload
        g = _graph(family, r)
        sched = _schedule(g, sched_family, seed)
        cache_size = min_cache_size(g) + m_extra
        runs = {}
        for mode in (KERNEL_MODE, "off"):
            trace: list[int] = []
            with simcore.forced_mode(mode):
                res, ev = CacheExecutor(g)._run(
                    sched, cache_size, policy, True, None, trace
                )
            runs[mode] = (res, ev, trace)
        assert runs[KERNEL_MODE] == runs["off"]


class TestKernelEntryPoints:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_run_grid_matches_single_calls(self, seed):
        """The batched grid kernel returns exactly the per-config
        scalar vectors of individual simulate_plan calls."""
        g = _graph("strassen", 2)
        sched = random_topological_schedule(g, seed=seed)
        ex = CacheExecutor(g)
        plan = ex.compile(sched)
        is_input = np.ascontiguousarray(ex.is_input).view(np.uint8)
        is_output = np.ascontiguousarray(ex.is_output).view(np.uint8)
        configs = [(M, p) for M in (8, 16, 48) for p in POLICY_CODES]
        with simcore.forced_mode(KERNEL_MODE):
            grid = simcore.run_grid(
                plan.kernel_arrays(), is_input, is_output,
                [M for M, _ in configs],
                [POLICY_CODES[p] for _, p in configs],
            )
            for row, (M, p) in zip(grid, configs):
                one = simcore.simulate_plan(
                    plan.kernel_arrays(), is_input, is_output,
                    M, POLICY_CODES[p],
                )
                assert list(row) == list(one), (M, p)

    def test_kernels_read_readonly_arrays(self):
        """The kernels must work on read-only plan arrays (bundle
        memmaps open with mmap_mode='r'): no in-place writes."""
        g = _graph("strassen", 2)
        sched = recursive_schedule(g)
        ex = CacheExecutor(g)
        arrays = ex.compile(sched).to_arrays()
        for arr in arrays.values():
            arr.setflags(write=False)
        plan = simcore.SchedulePlan.from_arrays(arrays, validated=True)
        with simcore.forced_mode(KERNEL_MODE):
            sc = simcore.simulate_plan(
                plan.kernel_arrays(),
                np.ascontiguousarray(ex.is_input).view(np.uint8),
                np.ascontiguousarray(ex.is_output).view(np.uint8),
                12, POLICY_CODES["belady"],
            )
        assert int(sc[STATUS]) == STATUS_OK
        ref, _ = reference_run(g, sched, 12, "belady")
        assert tuple(int(x) for x in sc[:2]) == (ref.reads, ref.writes)

    def test_mode_gating(self, monkeypatch):
        """REPRO_NO_JIT forces the fallback; set_mode validates."""
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        assert simcore.active_mode() == (
            "jit" if simcore.HAVE_NUMBA else "off"
        )
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert simcore.active_mode() == "off"
        monkeypatch.delenv("REPRO_NO_JIT")
        with simcore.forced_mode("interp"):
            assert simcore.active_mode() == "interp"
            with simcore.forced_mode("off"):
                assert simcore.active_mode() == "off"
            assert simcore.active_mode() == "interp"
        with pytest.raises(ValueError):
            simcore.set_mode("sideways")
        if not simcore.HAVE_NUMBA:
            with pytest.raises(RuntimeError):
                simcore.set_mode("jit")

    def test_schedule_error_surfaces_from_kernel(self):
        """An invalid (non-topological) schedule run without validation
        raises the same ScheduleError through the kernel path as the
        fallback does."""
        from repro.errors import ScheduleError

        g = _graph("strassen", 1)
        sched = recursive_schedule(g)[::-1].copy()
        for mode in (KERNEL_MODE, "off"):
            with simcore.forced_mode(mode):
                with pytest.raises(ScheduleError):
                    CacheExecutor(g).run(
                        sched, 12, "lru", validate=False
                    )
