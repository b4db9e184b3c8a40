"""Tests for the trace-driven cache simulators."""

import pytest

from repro.bilinear import strassen
from repro.tracesim import (
    FullyAssociativeLRU,
    trace_blocked,
    trace_ijk,
    trace_strassen_recursive,
)


class TestFullyAssociativeLRU:
    def test_hit_after_miss(self):
        stats = FullyAssociativeLRU(2).run([(0, False), (0, False)])
        assert stats.hits == 1
        assert stats.misses == 1

    def test_lru_eviction_order(self):
        # 0 is refreshed before 2 arrives, so 2 evicts 1: a following 0
        # hits and a 1 after it misses.
        prefix = [(a, False) for a in (0, 1, 0, 2)]
        runs = [
            FullyAssociativeLRU(2).run(prefix + [(a, False) for a in tail])
            for tail in ((), (0,), (0, 1))
        ]
        assert runs[1].hits == runs[0].hits + 1
        assert runs[2].misses == runs[1].misses + 1

    def test_writeback_only_dirty(self):
        # Dirty 0 is evicted by 1 (a write-back), clean 1 by 2 (free),
        # and clean 2 is flushed for free.
        stats = FullyAssociativeLRU(1).run([(0, True), (1, False), (2, False)])
        assert stats.writebacks == 1

    def test_flush_writes_dirty(self):
        stats = FullyAssociativeLRU(4).run([(0, True), (1, False)])
        assert stats.writebacks == 1

    def test_line_granularity(self):
        # 3 shares 0's line, 4 starts the next one.
        stats = FullyAssociativeLRU(1, line_size=4).run(
            [(0, False), (3, False), (4, False)]
        )
        assert (stats.hits, stats.misses) == (1, 2)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            FullyAssociativeLRU(0)


class TestTraces:
    def test_ijk_access_count(self):
        n = 6
        assert sum(1 for _ in trace_ijk(n)) == 4 * n**3

    def test_blocked_same_reference_multiset(self):
        """Blocking reorders but does not change the reference multiset
        (up to order)."""
        n, block = 6, 2
        ref_ijk = sorted(trace_ijk(n))
        ref_blk = sorted(trace_blocked(n, block))
        assert ref_ijk == ref_blk

    def test_blocked_beats_ijk(self):
        n, M = 32, 96
        io_ijk = FullyAssociativeLRU(M).run(trace_ijk(n)).io
        io_blk = FullyAssociativeLRU(M).run(trace_blocked(n, 5)).io
        assert io_blk < io_ijk

    def test_blocking_shape_hong_kung(self):
        """Doubling the block (with cache to hold it) roughly halves the
        I/O — the n^3/sqrt(M) law."""
        n = 32
        io4 = FullyAssociativeLRU(3 * 16 + 8).run(trace_blocked(n, 4)).io
        io8 = FullyAssociativeLRU(3 * 64 + 16).run(trace_blocked(n, 8)).io
        ratio = io4 / io8
        assert 1.5 < ratio < 3.0

    def test_huge_cache_compulsory_only(self):
        n = 8
        stats = FullyAssociativeLRU(10**6).run(trace_ijk(n))
        # Compulsory misses: 3 n^2 distinct words; writebacks: n^2 C words.
        assert stats.misses == 3 * n * n
        assert stats.writebacks == n * n

    def test_strassen_trace_runs(self):
        stats = FullyAssociativeLRU(256).run(
            trace_strassen_recursive(strassen(), 16, cutoff=4)
        )
        assert stats.io > 0

    def test_strassen_trace_io_decreases_with_cache(self):
        trace = list(trace_strassen_recursive(strassen(), 32, cutoff=4))
        small = FullyAssociativeLRU(64).run(trace).io
        large = FullyAssociativeLRU(2048).run(trace).io
        assert large < small

    def test_strassen_trace_requires_power(self):
        with pytest.raises(ValueError):
            list(trace_strassen_recursive(strassen(), 6))
