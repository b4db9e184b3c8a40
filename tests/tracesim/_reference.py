"""Golden reference trace-cache simulator.

A verbatim copy of the original ``OrderedDict`` implementation from
``repro.tracesim.cache`` (spans removed), one ``access`` call per
reference.  It is deliberately *not* imported from the package under
test: the equivalence suite checks the production
:class:`~repro.tracesim.FullyAssociativeLRU` loop against this frozen
one, so a regression in the production loop cannot silently re-define
"correct".
"""

from __future__ import annotations

from collections import OrderedDict

from repro.tracesim import CacheStats

__all__ = ["ReferenceFullyAssociativeLRU"]


class ReferenceFullyAssociativeLRU:
    """Fully associative, write-back, write-allocate LRU cache."""

    def __init__(self, capacity_lines: int, line_size: int = 1):
        self.capacity = capacity_lines
        self.line_size = line_size
        self._lines: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> bool:
        line = address // self.line_size
        stats = self.stats
        stats.accesses += 1
        if line in self._lines:
            stats.hits += 1
            self._lines.move_to_end(line)
            if is_write:
                self._lines[line] = True
            return True
        stats.misses += 1
        if len(self._lines) >= self.capacity:
            _, dirty = self._lines.popitem(last=False)
            if dirty:
                stats.writebacks += 1
        self._lines[line] = is_write
        return False

    def flush(self) -> None:
        for _, dirty in self._lines.items():
            if dirty:
                self.stats.writebacks += 1
        self._lines.clear()

    def run(self, trace) -> CacheStats:
        for address, is_write in trace:
            self.access(address, is_write)
        self.flush()
        return self.stats
