"""Exporters: Chrome trace_event and combined JSON — including the CLI
``route --trace-out`` acceptance path."""

import json

from repro import telemetry
from repro.cli import main as cli_main
from repro.telemetry.export import (
    spans_to_chrome_trace,
    telemetry_to_json,
    write_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry


def _synthetic_spans():
    return [
        {
            "name": "outer", "span_id": "1.1", "parent_id": None,
            "pid": 1, "tid": 10, "ts": 100.0, "dur": 0.5,
            "rss_peak_delta_kib": 0, "counters": {"items": 3},
            "attrs": {"alg": "strassen"}, "error": None,
        },
        {
            "name": "inner", "span_id": "1.2", "parent_id": "1.1",
            "pid": 1, "tid": 10, "ts": 100.1, "dur": 0.2,
            "rss_peak_delta_kib": 16, "counters": {},
            "attrs": {}, "error": "ValueError",
        },
    ]


def test_chrome_trace_structure():
    doc = spans_to_chrome_trace(_synthetic_spans(), metadata={"cmd": "t"})
    assert doc["otherData"] == {"cmd": "t"}
    events = doc["traceEvents"]
    assert len(events) == 2
    outer, inner = events
    assert outer["ph"] == inner["ph"] == "X"
    assert outer["ts"] == 0.0  # rebased to the earliest span
    assert inner["ts"] == 100000.0  # 0.1 s later, in microseconds
    assert outer["dur"] == 500000.0
    assert outer["args"]["items"] == 3
    assert outer["args"]["attr.alg"] == "strassen"
    assert inner["args"]["parent_id"] == "1.1"
    assert inner["args"]["rss_peak_delta_kib"] == 16
    assert inner["args"]["error"] == "ValueError"
    json.dumps(doc)  # must be JSON-serialisable as-is


def test_write_chrome_trace_round_trips(tmp_path):
    path = write_chrome_trace(tmp_path / "t.json", _synthetic_spans())
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == 2
    assert loaded["displayTimeUnit"] == "ms"


def test_telemetry_to_json_combined():
    reg = MetricsRegistry()
    reg.counter("c").inc(1)
    doc = telemetry_to_json(
        spans=_synthetic_spans(), registry=reg, metadata={"k": 1}
    )
    assert doc["schema"] == 1
    assert len(doc["spans"]) == 2
    assert doc["metrics"]["c"]["value"] == 1
    json.dumps(doc)


def test_cli_route_trace_out_produces_loadable_trace(tmp_path):
    """Acceptance: a Theorem-2 routing run with --trace-out yields a
    Chrome trace with nonzero spans."""
    out = tmp_path / "route_trace.json"
    rc = cli_main(
        ["route", "--alg", "strassen", "--k", "1", "--trace-out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert len(events) > 0
    names = {e["name"] for e in events}
    assert "routing.certificate" in names
    assert "cdag.build" in names
    assert any(e["dur"] > 0 for e in events)
    # Telemetry was flag-scoped: the CLI enabled it for this run only.
    counters = events[-1]["args"]
    assert "span_id" in counters
    assert not telemetry.enabled()
    assert telemetry.collected_spans() == []


def test_cli_trace_out_failure_leaves_telemetry_off(tmp_path):
    """A command that fails under --trace-out (tune at a cache too small
    to execute the graph exits 1) also turns collection back off and
    keeps none of its spans."""
    out = tmp_path / "tune_trace.json"
    assert cli_main(["tune", "--M", "2", "--trace-out", str(out)]) == 1
    assert not telemetry.enabled()
    assert telemetry.collected_spans() == []


def test_cli_trace_out_keeps_prior_collection(tmp_path):
    """Under collection already on, --trace-out writes only the
    command's spans and leaves the earlier spans and the switch as they
    were."""
    telemetry.enable()
    with telemetry.span("before"):
        pass
    out = tmp_path / "route_trace.json"
    assert cli_main(
        ["route", "--alg", "strassen", "--k", "1", "--trace-out", str(out)]
    ) == 0
    names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
    assert "routing.certificate" in names and "before" not in names
    assert telemetry.enabled()
    assert [s["name"] for s in telemetry.collected_spans()] == ["before"]
