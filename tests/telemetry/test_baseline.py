"""Perf baselines: BENCH naming, recording, and regression gating
(including the synthetic 10x slowdown that must trip --compare)."""

import json

import pytest

from repro.telemetry import baseline as bl


def test_bench_filename_mapping():
    assert bl.bench_filename("E1") == "BENCH_e01.json"
    assert bl.bench_filename("E14") == "BENCH_e14.json"
    assert bl.bench_filename("My Exp!") == "BENCH_my_exp.json"


def test_measure_experiment_shape():
    doc = bl.measure_experiment("E1", repeats=2)
    assert doc["schema"] == bl.BENCH_SCHEMA
    assert doc["experiment"] == "E1"
    assert doc["repeats"] == 2 and len(doc["times_s"]) == 2
    assert doc["median_s"] >= 0
    assert doc["counters"], "E1 must produce telemetry counters"
    assert all(
        isinstance(v, (int, float)) for v in doc["counters"].values()
    )


def test_write_and_load_round_trip(tmp_path):
    doc = bl.measure_experiment("E1", repeats=1)
    path = bl.write_baseline(doc, tmp_path)
    assert path.name == "BENCH_e01.json"
    assert bl.load_baseline("E1", tmp_path) == json.loads(path.read_text())
    assert bl.load_baseline("E2", tmp_path) is None


def test_load_rejects_wrong_schema(tmp_path):
    (tmp_path / "BENCH_e01.json").write_text('{"schema": 999}')
    assert bl.load_baseline("E1", tmp_path) is None
    (tmp_path / "BENCH_e02.json").write_text("not json")
    assert bl.load_baseline("E2", tmp_path) is None


def test_compare_docs_verdicts():
    base = {"experiment": "E1", "median_s": 1.0, "counters": {"a": 5}}
    ok = bl.compare_docs(
        base, {"experiment": "E1", "median_s": 1.2, "counters": {"a": 5}}, 1.5
    )
    assert ok["ok"] and not ok["regression"]
    assert ok["ratio"] == pytest.approx(1.2)
    assert ok["counter_drift"] == []

    bad = bl.compare_docs(
        base, {"experiment": "E1", "median_s": 2.0, "counters": {"a": 7}}, 1.5
    )
    assert not bad["ok"] and bad["regression"]
    assert bad["verdict"] == "REGRESSION + COUNTER DRIFT"
    assert bad["counter_drift"] == [
        {"counter": "a", "baseline": 5, "current": 7}
    ]


def test_counter_drift_fails_the_compare(tmp_path, capsys):
    """A counter that differs fails the compare even at an equal
    median, and so does a counter that appears or disappears."""
    base = {"experiment": "E1", "median_s": 1.0, "counters": {"a": 5}}
    for counters in ({"a": 500}, {"a": 5, "b": 1}, {}):
        cur = {"experiment": "E1", "median_s": 1.0, "counters": counters}
        report = bl.compare_docs(base, cur, 1.5)
        assert not report["ok"] and not report["regression"]
        assert report["verdict"] == "COUNTER DRIFT"
        assert len(report["counter_drift"]) == 1

    assert bl.run_perf(["E1"], repeats=1, root=tmp_path) == 0
    path = tmp_path / "BENCH_e01.json"
    doc = json.loads(path.read_text())
    name = sorted(doc["counters"])[0]
    doc["counters"][name] += 1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = bl.run_perf(["E1"], repeats=1, root=tmp_path, compare=True,
                     threshold=10.0)
    assert rc == 1
    out = capsys.readouterr().out
    assert "COUNTER DRIFT" in out and f"[drift] E1 {name}" in out


def test_e14_counters_do_not_depend_on_repeats():
    """measure_experiment records the counters of one execution: E14's
    plan-cache counters read the same after one repeat as after two.
    Each of its four measured executions compiles once; its Hong-Kung
    partition reuses the plan."""
    one = bl.measure_experiment("E14", repeats=1)["counters"]
    two = bl.measure_experiment("E14", repeats=2)["counters"]
    assert one == two
    assert one["pebbling.plan.miss"] == 4
    assert one["pebbling.plan.hit"] == 4


def test_run_perf_record_then_compare_ok(tmp_path, capsys):
    rc = bl.run_perf(["E1"], repeats=1, root=tmp_path)
    assert rc == 0
    assert (tmp_path / "BENCH_e01.json").exists()
    # Unchanged code: a generous threshold must pass.
    rc = bl.run_perf(["E1"], repeats=1, root=tmp_path, compare=True,
                     threshold=10.0)
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_run_perf_compare_missing_baseline_fails(tmp_path, capsys):
    rc = bl.run_perf(["E1"], repeats=1, root=tmp_path, compare=True)
    assert rc == 1
    assert "NO BASELINE" in capsys.readouterr().out


def test_run_perf_detects_synthetic_slowdown(tmp_path, capsys, monkeypatch):
    """Acceptance: a 10x slowdown must exit nonzero past the threshold."""
    assert bl.run_perf(["E1"], repeats=1, root=tmp_path) == 0

    real_time_once = bl._time_once
    monkeypatch.setattr(
        bl, "_time_once", lambda fn, kw: real_time_once(fn, kw) * 10.0
    )
    rc = bl.run_perf(["E1"], repeats=1, root=tmp_path, compare=True,
                     threshold=3.0)
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_run_perf_trace_and_json_outputs(tmp_path):
    from repro.cli import main

    trace = tmp_path / "perf_trace.json"
    combined = tmp_path / "perf.json"
    rc = main([
        "perf", "E1", "--repeats", "1", "--bench-dir", str(tmp_path),
        "--trace-out", str(trace), "--json-out", str(combined),
    ])
    assert rc == 0
    assert json.loads(trace.read_text())["traceEvents"]
    doc = json.loads(combined.read_text())
    assert doc["schema"] == 1
    assert "E1" in doc["measurements"]
