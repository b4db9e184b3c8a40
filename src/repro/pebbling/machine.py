"""The two-level machine model of the paper's Section 1.

- Slow memory: unlimited; initially holds all inputs.
- Fast memory (cache): capacity ``M`` values.
- A value may be loaded (slow -> cache) or stored (cache -> slow) at a
  cost of one I/O each; inputs' first reads and outputs' final writes
  count like any other.
- A vertex may be computed only when *all* its predecessors are in cache;
  the result lands in cache.
- No value is ever computed twice (the no-recomputation assumption both
  the paper and [10]'s pebble-game formalisation use).
- The run ends when every output resides in slow memory.

The strict pebble game (:mod:`repro.pebbling.pebble_game`) and the
policy-driven executor (:mod:`repro.pebbling.executor`) both play this
machine; :func:`check_cache_size` is the executability condition they
share.
"""

from __future__ import annotations

from repro.cdag.graph import CDAG
from repro.errors import CacheError
from repro.utils.validation import check_positive_int

__all__ = ["check_cache_size", "min_cache_size"]


def min_cache_size(cdag: CDAG) -> int:
    """Smallest cache for which any schedule of this CDAG is executable:
    max in-degree plus one (all predecessors plus the result)."""
    return int(cdag.in_degree().max(initial=0)) + 1


def check_cache_size(cdag: CDAG, cache_size: int, needed: int | None = None) -> None:
    """Raise :class:`ValueError` unless ``cache_size`` is a positive
    integer, and :class:`CacheError` if it is below
    :func:`min_cache_size` (``needed``, when the caller already has it):
    too small to compute the widest vertex."""
    check_positive_int(cache_size, "cache_size")
    if needed is None:
        needed = min_cache_size(cdag)
    if cache_size < needed:
        raise CacheError(
            f"cache of size {cache_size} cannot execute "
            f"{cdag!r}: computing the widest vertex needs "
            f"{needed} slots"
        )
