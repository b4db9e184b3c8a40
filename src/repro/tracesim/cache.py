"""Address-trace cache simulators.

Complementing the CDAG pebble-game executor (which is exact but bounded
by explicit graph sizes), these simulators consume *address traces* of
loop-nest kernels (:mod:`repro.tracesim.kernels`) and so reach the
large-``n`` regime of experiment E10 with realistic cache organisations:

- :class:`FullyAssociativeLRU` — the theory-side model (matches the
  machine model up to the write policy);
- :class:`SetAssociativeLRU` — hardware-shaped (sets + ways + lines),
  for the ablation of how much the idealised model under-counts.

The fully associative cache is the one-set case of the set-associative
one, so there is one ``access``/``flush``/``run`` body.  Both are thin
views over the simulation core's one LRU engine
(:class:`repro.simcore.trace.LRUCacheCore`): this module owns the
address-to-line mapping, the :class:`CacheStats` accumulation and the
``tracesim.run`` spans; the core owns the eviction rule, exactly once
(the pre-unification ``OrderedDict`` loops survive verbatim as the
golden reference in ``tests/tracesim/_reference.py``).  When the
compiled kernels are active, :meth:`FullyAssociativeLRU.run` routes a
cold run through the columnar lockstep kernel
(:func:`repro.simcore.trace.run_trace_grid`).

Counters distinguish hits, misses, and dirty evictions (write-backs), so
``misses + writebacks`` mirrors the paper's read+write I/O measure.
"""

from __future__ import annotations

import numpy as np

from repro.simcore.dispatch import active_mode
from repro.simcore.trace import CacheStats, LRUCacheCore, run_trace_grid
from repro.telemetry.spans import span
from repro.utils.validation import check_positive_int

__all__ = ["CacheStats", "FullyAssociativeLRU", "SetAssociativeLRU"]


class SetAssociativeLRU:
    """Set-associative, write-back, write-allocate LRU cache."""

    organisation = "set-associative"

    def __init__(self, n_sets: int, ways: int, line_size: int = 1):
        self.n_sets = check_positive_int(n_sets, "n_sets")
        self.ways = check_positive_int(ways, "ways")
        self.line_size = check_positive_int(line_size, "line_size")
        self._core = LRUCacheCore(self.n_sets, self.ways)
        self.stats = CacheStats()

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.ways

    def access(self, address: int, is_write: bool = False) -> bool:
        """Touch ``address``; returns True on hit."""
        line = address // self.line_size
        hit, wrote_back = self._core.access(line, is_write)
        stats = self.stats
        stats.accesses += 1
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
            if wrote_back:
                stats.writebacks += 1
        return hit

    def flush(self) -> None:
        """Write back all dirty lines (end of run)."""
        self.stats.writebacks += self._core.flush()

    def run(self, trace) -> CacheStats:
        """Consume an iterable of ``(address, is_write)`` pairs and
        flush; returns the statistics.

        The hot loop lives in :meth:`LRUCacheCore.run_counts` (the E10
        traces run to 10^7 accesses), with the set lookup
        (``line % n_sets``) resolved inside the core.
        """
        with span(
            "tracesim.run", organisation=self.organisation,
            capacity_lines=self.capacity_lines, line_size=self.line_size,
        ) as sp:
            self._consume(trace)
            _record_cache_counters(sp, self.stats)
            return self.stats

    def _consume(self, trace) -> None:
        """Add a whole trace to :attr:`stats`, flush included."""
        self._add(self._core.run_counts(trace, self.line_size))
        self.flush()

    def _add(self, counts) -> None:
        stats = self.stats
        stats.accesses += counts[0]
        stats.hits += counts[1]
        stats.misses += counts[2]
        stats.writebacks += counts[3]


class FullyAssociativeLRU(SetAssociativeLRU):
    """Fully associative, write-back, write-allocate LRU cache: the
    one-set case of :class:`SetAssociativeLRU`.

    Parameters
    ----------
    capacity_lines:
        Number of cache lines.
    line_size:
        Words per line; ``1`` reproduces the theoretical machine model
        (every word its own transfer unit).
    """

    organisation = "fully-associative"

    def __init__(self, capacity_lines: int, line_size: int = 1):
        super().__init__(
            1, check_positive_int(capacity_lines, "capacity_lines"),
            line_size,
        )

    @property
    def capacity(self) -> int:
        return self.ways

    def _consume(self, trace) -> None:
        """With the compiled kernels on and the cache cold, the trace is
        materialised once and handed to the columnar lockstep kernel
        (which flushes itself) — bit-identical by the tracesim
        equivalence suite."""
        if active_mode() != "jit" or self._core.buckets[0]:
            super()._consume(trace)
            return
        # Pack (address, is_write) into one int64 stream so a single
        # fromiter pass materialises the generator.
        enc = np.fromiter(
            (addr * 2 + bool(w) for addr, w in trace), dtype=np.int64,
        )
        g = run_trace_grid(
            enc >> 1, (enc & 1).astype(np.uint8),
            [self.capacity], line_size=self.line_size,
        )[0]
        self._add((g.accesses, g.hits, g.misses, g.writebacks))


def _record_cache_counters(sp, stats: CacheStats) -> None:
    """Per-policy hit/miss/eviction counters onto the run's span."""
    sp.add("accesses", stats.accesses)
    sp.add("hits", stats.hits)
    sp.add("misses", stats.misses)
    sp.add("writebacks", stats.writebacks)
