"""Exporters: JSON and Chrome ``trace_event``.

Both exporters consume the plain-dict span records produced by
:mod:`repro.telemetry.spans` and/or a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and produce
JSON-native documents — no third-party dependencies.

The Chrome exporter emits the ``trace_event`` JSON-object format
(``{"traceEvents": [...]}``) with complete (``"ph": "X"``) events, so a
routing construction or a sweep can be dropped straight into
``chrome://tracing`` / Perfetto; worker processes appear as separate
``pid`` rows, and span counters ride along in ``args``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "telemetry_to_json",
    "write_json",
]


def spans_to_chrome_trace(
    spans: Iterable[Mapping], metadata: Mapping | None = None
) -> dict:
    """Convert span records to a Chrome ``trace_event`` document.

    Timestamps are rebased to the earliest span so the viewer opens at
    t=0; durations and timestamps are microseconds, as the format
    requires.
    """
    spans = list(spans)
    t0 = min((s["ts"] for s in spans), default=0.0)
    events = []
    for s in spans:
        args = dict(s.get("counters", {}))
        args.update({f"attr.{k}": v for k, v in s.get("attrs", {}).items()})
        args["span_id"] = s.get("span_id")
        if s.get("parent_id"):
            args["parent_id"] = s["parent_id"]
        if s.get("rss_peak_delta_kib"):
            args["rss_peak_delta_kib"] = s["rss_peak_delta_kib"]
        if s.get("error"):
            args["error"] = s["error"]
        events.append(
            {
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round((s["ts"] - t0) * 1e6, 3),
                "dur": round(s["dur"] * 1e6, 3),
                "pid": s.get("pid", 0),
                "tid": s.get("tid", 0),
                "args": args,
            }
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(
    path, spans: Iterable[Mapping], metadata: Mapping | None = None
) -> Path:
    """Write a Chrome trace-event file; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = spans_to_chrome_trace(spans, metadata=metadata)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def telemetry_to_json(
    spans: Iterable[Mapping] | None = None,
    registry: MetricsRegistry | None = None,
    metadata: Mapping | None = None,
) -> dict:
    """Combined machine-readable snapshot: spans + metrics + metadata."""
    doc: dict = {"schema": 1}
    if metadata:
        doc["metadata"] = dict(metadata)
    if spans is not None:
        doc["spans"] = list(spans)
    if registry is not None:
        doc["metrics"] = registry.as_dict()
    return doc


def write_json(path, doc: Mapping) -> Path:
    """Write a JSON document with stable key order; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path
