"""Nestable timing spans with a no-op fast path.

A *span* measures one region of work: wall time, peak-RSS delta, and
arbitrary named counters.  Spans nest — each thread keeps its own stack,
so the parent/child structure is correct under threading — and every
finished span is appended to a process-local collector from which
exporters (:mod:`repro.telemetry.export`) read.  Its numeric counters
also fold into the metrics registry (:mod:`repro.telemetry.metrics`)
as ``<span>.<counter>`` sums.

Telemetry is **disabled by default**: :func:`enable` turns it on (the
CLI's ``--trace-out`` does, for one command).  While disabled, :func:`span`
returns a shared singleton whose ``__enter__``/``__exit__``/``add`` are
empty one-liners, so instrumented code pays only one module-level bool
check per region — measured well under the 5% overhead budget even on
the tightest instrumented layers (the pebble-game executor records its
counters once per *run*, never per step).

Process safety: each worker process keeps its own collector and span-id
namespace (ids are ``"<pid>.<n>"``); finished spans are plain dicts, so
they pickle across the pool boundary, and :func:`ingest_spans` merges
worker snapshots into the parent's collector.  Cross-process parentage
is explicit: pass ``parent=<span id>`` when opening a worker's root
span (the sweep scheduler does this, so Chrome traces show worker jobs
nested under the sweep).
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import threading
import time

from repro.telemetry.metrics import metrics

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset_spans",
    "span",
    "traced",
    "current_span",
    "add_counter",
    "collected_spans",
    "drain_spans",
    "ingest_spans",
]

_ENABLED = False

_IDS = itertools.count(1)
_LOCK = threading.Lock()
_FINISHED: list[dict] = []


class _Stack(threading.local):
    def __init__(self):
        self.spans: list["Span"] = []


_STACK = _Stack()


def enabled() -> bool:
    """Whether telemetry collection is on."""
    return _ENABLED


def enable() -> None:
    """Turn telemetry collection on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn telemetry collection off; already-collected spans remain
    until :func:`reset_spans`."""
    global _ENABLED
    _ENABLED = False


def reset_spans() -> None:
    """Drop every collected span (does not touch the enabled flag)."""
    with _LOCK:
        _FINISHED.clear()


def _peak_rss_kib() -> int:
    """Process peak RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, name, value=1):
        pass

    def set(self, name, value):
        pass

    @property
    def span_id(self):
        return None


NOOP_SPAN = _NoopSpan()


class Span:
    """One live measured region.  Use via :func:`span`, not directly."""

    __slots__ = (
        "name", "attrs", "counters", "span_id", "parent_id",
        "_explicit_parent", "_t0", "_ts", "_rss0",
    )

    def __init__(self, name: str, parent: str | None, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.span_id = f"{os.getpid()}.{next(_IDS)}"
        self._explicit_parent = parent
        self.parent_id: str | None = None

    def add(self, name: str, value=1) -> None:
        """Accumulate into a per-span counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value) -> None:
        """Set a per-span counter to an absolute value."""
        self.counters[name] = value

    def __enter__(self) -> "Span":
        stack = _STACK.spans
        if self._explicit_parent is not None:
            self.parent_id = self._explicit_parent
        elif stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._ts = time.time()
        self._rss0 = _peak_rss_kib()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        rss_delta = max(0, _peak_rss_kib() - self._rss0)
        stack = _STACK.spans
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - mis-nested exit; stay safe
            try:
                stack.remove(self)
            except ValueError:
                pass
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "ts": self._ts,
            "dur": dur,
            "rss_peak_delta_kib": rss_delta,
            "counters": dict(self.counters),
            "attrs": dict(self.attrs),
            "error": exc_type.__name__ if exc_type is not None else None,
        }
        with _LOCK:
            _FINISHED.append(record)
        # Fold span counters into the global metrics registry so the
        # sweep/perf aggregation sees them without a second
        # instrumentation pass.
        reg = metrics()
        for cname, cvalue in self.counters.items():
            if isinstance(cvalue, bool) or not isinstance(cvalue, (int, float)):
                continue
            reg.counter(f"{self.name}.{cname}").inc(cvalue)
        return False


def span(name: str, parent: str | None = None, **attrs):
    """Open a measured region.

    Returns a context manager; while telemetry is disabled this is the
    shared :data:`NOOP_SPAN` (one bool check, zero allocation).

    >>> with span("cdag.build", alg="strassen") as sp:   # doctest: +SKIP
    ...     sp.add("vertices", 123)
    """
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name, parent, attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form of :func:`span`; the span is named after the
    function (``module.function``) unless ``name`` is given."""

    def deco(fn):
        label = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with Span(label, None, dict(attrs)):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def current_span():
    """The innermost live span of this thread (or None)."""
    stack = _STACK.spans
    return stack[-1] if stack else None


def add_counter(name: str, value=1) -> None:
    """Accumulate into the innermost live span's counter (no-op when
    disabled or when no span is open)."""
    if not _ENABLED:
        return
    stack = _STACK.spans
    if stack:
        stack[-1].add(name, value)


def collected_spans() -> list[dict]:
    """Snapshot of every finished span so far (records are copies of
    the collector's references; treat them as read-only)."""
    with _LOCK:
        return list(_FINISHED)


def drain_spans() -> list[dict]:
    """Return and clear the finished spans (used to ship a worker's
    spans across the process boundary)."""
    with _LOCK:
        out = list(_FINISHED)
        _FINISHED.clear()
    return out


def ingest_spans(records) -> int:
    """Merge span records collected elsewhere (another process) into
    this process's collector; returns how many were added."""
    records = list(records)
    with _LOCK:
        _FINISHED.extend(records)
    return len(records)
