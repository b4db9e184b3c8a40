"""Tests for the cache executor (I/O counting)."""

import gc
import weakref

import pytest

from repro.bilinear import classical, strassen
from repro.cdag import build_base_graph, build_cdag
from repro.errors import CacheError, ScheduleError
from repro.pebbling import CacheExecutor, min_cache_size, simulate_io
from repro.schedules import (
    rank_order_schedule,
    random_topological_schedule,
    recursive_schedule,
)


@pytest.fixture(scope="module")
def g2():
    return build_cdag(strassen(), 2)


@pytest.fixture(scope="module")
def sched2(g2):
    return recursive_schedule(g2)


class TestBasicAccounting:
    def test_huge_cache_compulsory_io_only(self, g2, sched2):
        """With cache bigger than the graph, I/O = inputs + outputs."""
        res = simulate_io(g2, sched2, cache_size=g2.n_vertices + 1)
        assert res.reads == len(g2.inputs())
        assert res.writes == len(g2.outputs())
        assert res.spill_reads == 0
        assert res.spill_writes == 0

    def test_total_is_reads_plus_writes(self, g2, sched2):
        res = simulate_io(g2, sched2, cache_size=16)
        assert res.total == res.reads + res.writes

    def test_io_monotone_in_cache_size(self, g2, sched2):
        """Larger cache never hurts (same policy, same schedule)."""
        totals = [
            simulate_io(g2, sched2, cache_size=M).total
            for M in (8, 16, 32, 64, 128, 1024)
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_io_at_least_compulsory(self, g2):
        """No schedule/policy does fewer I/Os than touching inputs and
        outputs once each."""
        compulsory = len(g2.inputs()) + len(g2.outputs())
        for sched in (recursive_schedule(g2), rank_order_schedule(g2)):
            for policy in ("lru", "fifo", "belady"):
                res = simulate_io(g2, sched, 16, policy=policy)
                assert res.total >= compulsory

    def test_peak_cache_bounded(self, g2, sched2):
        res = simulate_io(g2, sched2, cache_size=12)
        assert res.peak_cache <= 12


class TestPolicies:
    def test_belady_at_most_lru(self, g2, sched2):
        """Belady (MIN) never does more read I/O than LRU on the same
        run.  (Total includes writes, which MIN does not optimise, so
        compare reads.)"""
        for M in (8, 16, 32):
            lru = simulate_io(g2, sched2, M, policy="lru")
            belady = simulate_io(g2, sched2, M, policy="belady")
            assert belady.reads <= lru.reads

    def test_unknown_policy_raises(self, g2, sched2):
        with pytest.raises(CacheError):
            simulate_io(g2, sched2, 16, policy="magic")

    def test_fifo_runs(self, g2, sched2):
        res = simulate_io(g2, sched2, 16, policy="fifo")
        assert res.total > 0


class TestValidation:
    def test_rejects_wrong_length(self, g2, sched2):
        with pytest.raises(ScheduleError):
            simulate_io(g2, sched2[:-1], 16)

    def test_rejects_non_topological(self, g2, sched2):
        bad = sched2.copy()[::-1]
        with pytest.raises(ScheduleError):
            simulate_io(g2, bad, 16)

    def test_rejects_duplicates(self, g2, sched2):
        bad = sched2.copy()
        bad[1] = bad[0]
        with pytest.raises(ScheduleError):
            simulate_io(g2, bad, 16)

    def test_rejects_cache_too_small(self, g2, sched2):
        with pytest.raises(CacheError):
            simulate_io(g2, sched2, min_cache_size(g2) - 1)

    def test_schedule_error_on_every_path(self, g2, sched2):
        """A non-topological schedule raises ScheduleError through the
        passes' hand-off to the loop and on the loop itself, one
        configuration or several."""
        ex = CacheExecutor(g2)
        bad = sched2[::-1].copy()
        for policies in (("lru",), ("lru", "belady"), ("fifo",)):
            with pytest.raises(ScheduleError):
                ex.run_many(bad, (12,), policies, validate=False)
            for policy in policies:
                with pytest.raises(ScheduleError):
                    ex.run(bad, 12, policy, validate=False, io_trace=[])


class TestMachineModel:
    def test_min_cache_size(self):
        g = build_base_graph(strassen())
        # Widest vertex: decoder output c11/c22 with 4 preds -> 5.
        assert min_cache_size(g) == 5

    def test_bad_cache_size(self, g2, sched2):
        with pytest.raises(ValueError):
            simulate_io(g2, sched2, 0)


def test_simulate_io_holds_no_graph():
    """simulate_io runs on a fresh executor: once the caller drops the
    graph, nothing keeps it alive."""
    g = build_cdag(strassen(), 2)
    simulate_io(g, recursive_schedule(g), 12)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


class TestScheduleQualityOrdering:
    def test_recursive_beats_rank_order(self):
        """The blocking structure must show up in measured I/O."""
        g = build_cdag(strassen(), 3)
        M = 32
        rec = simulate_io(g, recursive_schedule(g), M)
        rank = simulate_io(g, rank_order_schedule(g), M)
        assert rec.total < rank.total

    def test_recursive_beats_random(self):
        g = build_cdag(strassen(), 3)
        M = 32
        rec = simulate_io(g, recursive_schedule(g), M)
        rnd = simulate_io(g, random_topological_schedule(g, seed=7), M)
        assert rec.total < rnd.total

    def test_recursive_io_decreases_with_m(self):
        g = build_cdag(strassen(), 3)
        sched = recursive_schedule(g)
        io_small = simulate_io(g, sched, 16).total
        io_big = simulate_io(g, sched, 256).total
        assert io_big < io_small


class TestClassicalBaseline:
    def test_blocked_classical_io(self):
        from repro.schedules import loop_order_schedule

        g = build_cdag(classical(2), 3)
        sched = loop_order_schedule(g, "ijk")
        res = simulate_io(g, sched, 32)
        # Must at least touch all inputs and outputs.
        assert res.total >= len(g.inputs()) + len(g.outputs())
