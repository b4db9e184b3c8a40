"""Address-trace LRU cache simulator.

Complementing the CDAG pebble-game executor (which is exact but bounded
by explicit graph sizes), :class:`FullyAssociativeLRU` consumes
*address traces* of loop-nest kernels (:mod:`repro.tracesim.kernels`):
in-place updates, per-level scratch buffers and cache lines, none of
which the pebble game models.  It serves E10's n = 64 trace table and
E13.4's line-size ablation.

Counters distinguish hits, misses, and dirty evictions (write-backs), so
``misses + writebacks`` mirrors the paper's read+write I/O measure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.telemetry.spans import span
from repro.utils.validation import check_positive_int

__all__ = ["CacheStats", "FullyAssociativeLRU"]


@dataclass
class CacheStats:
    """Access counters for one simulated run."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def io(self) -> int:
        """Reads from + writes to slow memory (the paper's measure, at
        line granularity)."""
        return self.misses + self.writebacks


class FullyAssociativeLRU:
    """Fully associative, write-back, write-allocate LRU cache.

    Parameters
    ----------
    capacity_lines:
        Number of cache lines.
    line_size:
        Words per line; ``1`` reproduces the theoretical machine model
        (every word its own transfer unit).
    """

    def __init__(self, capacity_lines: int, line_size: int = 1):
        self.capacity = check_positive_int(capacity_lines, "capacity_lines")
        self.line_size = check_positive_int(line_size, "line_size")

    def run(self, trace) -> CacheStats:
        """Consume an iterable of ``(address, is_write)`` pairs on a cold
        cache, write back the dirty lines left at the end, and return
        the counters.

        The dict methods are bound locally: the E10 traces run to 10^6
        accesses.
        """
        with span(
            "tracesim.run", capacity_lines=self.capacity,
            line_size=self.line_size,
        ) as sp:
            capacity, line_size = self.capacity, self.line_size
            lines: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
            move_to_end = lines.move_to_end
            popitem = lines.popitem
            accesses = hits = misses = writebacks = 0
            for address, is_write in trace:
                line = address // line_size if line_size > 1 else address
                accesses += 1
                if line in lines:
                    hits += 1
                    move_to_end(line)
                    if is_write:
                        lines[line] = True
                    continue
                misses += 1
                if len(lines) >= capacity:
                    if popitem(last=False)[1]:
                        writebacks += 1
                lines[line] = is_write
            writebacks += sum(1 for dirty in lines.values() if dirty)
            sp.add("accesses", accesses)
            sp.add("hits", hits)
            sp.add("misses", misses)
            sp.add("writebacks", writebacks)
            return CacheStats(accesses, hits, misses, writebacks)
