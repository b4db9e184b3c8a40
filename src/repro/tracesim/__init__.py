"""Trace-driven cache simulation: loop-nest address generators and a
fully associative LRU cache — the large-``n`` complement to the exact
CDAG pebble-game executor."""

from repro.tracesim.cache import CacheStats, FullyAssociativeLRU
from repro.tracesim.kernels import trace_ijk, trace_blocked, trace_strassen_recursive

__all__ = [
    "CacheStats",
    "FullyAssociativeLRU",
    "trace_ijk",
    "trace_blocked",
    "trace_strassen_recursive",
]
