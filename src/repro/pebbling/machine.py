"""The two-level machine model of the paper's Section 1.

- Slow memory: unlimited; initially holds all inputs.
- Fast memory (cache): capacity ``M`` values.
- A value may be loaded (slow -> cache) or stored (cache -> slow) at a
  cost of one I/O each.
- A vertex may be computed only when *all* its predecessors are in cache;
  the result lands in cache.
- No value is ever computed twice (the no-recomputation assumption both
  the paper and [10]'s pebble-game formalisation use).
- The run ends when every output resides in slow memory.

:class:`MachineModel` bundles the parameters and the legality conditions
shared by the strict pebble game (:mod:`repro.pebbling.pebble_game`) and
the policy-driven executor (:mod:`repro.pebbling.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdag.graph import CDAG
from repro.errors import CacheError
from repro.utils.validation import check_positive_int

__all__ = ["MachineModel", "min_cache_size"]


def min_cache_size(cdag: CDAG) -> int:
    """Smallest cache for which any schedule of this CDAG is executable:
    max in-degree plus one (all predecessors plus the result)."""
    return int(cdag.in_degree().max(initial=0)) + 1


@dataclass(frozen=True)
class MachineModel:
    """Two-level machine with cache capacity ``M``.

    Attributes
    ----------
    cache_size:
        Fast-memory capacity in values (paper's ``M``).
    count_input_reads:
        Whether loads of input values count as I/O (the paper's model:
        yes — all data starts in slow memory).
    count_output_writes:
        Whether the final stores of outputs count as I/O (paper: yes).
    """

    cache_size: int
    count_input_reads: bool = True
    count_output_writes: bool = True

    def __post_init__(self):
        check_positive_int(self.cache_size, "cache_size")

    def check_executable(self, cdag: CDAG) -> None:
        """Raise :class:`CacheError` if some vertex cannot be computed
        with this cache size (too many predecessors)."""
        needed = min_cache_size(cdag)
        if self.cache_size < needed:
            raise CacheError(
                f"cache of size {self.cache_size} cannot execute "
                f"{cdag!r}: computing the widest vertex needs "
                f"{needed} slots"
            )
