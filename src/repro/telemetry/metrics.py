"""Named counters: the process-global registry spans fold into.

A counter is a sum.  Every numeric span counter folds into the registry
as ``<span>.<counter>`` when its span closes, so a counter a span
``set`` reads here as the sum over every such span; code may also bump
a counter directly with :meth:`MetricsRegistry.inc`.

A registry serialises to a JSON-native dict (:meth:`MetricsRegistry.as_dict`)
so a sweep job can ship its counters across the process boundary, where
:meth:`MetricsRegistry.ingest` adds them in; perf baselines record the
values.
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = ["Counter", "MetricsRegistry", "metrics", "reset_metrics"]


class Counter:
    """Monotonically accumulating sum."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def inc(self, value=1) -> None:
        self.value += value

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class MetricsRegistry:
    """Name → counter mapping with a get-or-create accessor.

    Thread-safe for creation; updates are plain attribute arithmetic
    (the GIL makes them atomic enough for telemetry purposes, and each
    job process owns its registry).
    """

    def __init__(self):
        self._metrics: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, Counter())
        return metric

    def inc(self, name: str, value=1) -> None:
        """Shortcut: bump a counter."""
        self.counter(name).inc(value)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Counter | None:
        """The counter registered under ``name`` (or None)."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def as_dict(self) -> dict:
        """JSON-native state, sorted by name."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def ingest(self, doc: Mapping) -> None:
        """Add a serialised registry (e.g. shipped from a job process)
        into this one, in place."""
        for name, counter_doc in doc.items():
            self.inc(name, counter_doc["value"])

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry spans fold into."""
    return _GLOBAL


def reset_metrics() -> None:
    """Clear the process-global registry."""
    _GLOBAL.clear()
