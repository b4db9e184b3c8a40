"""Span propagation across the sweep runner's process-pool boundary."""

import os

from repro import telemetry
from repro.runner.events import EventLog, validate_event
from repro.runner.jobs import JobSpec
from repro.runner.pool import run_sweep
from repro.runner.store import ResultStore

HELPERS = "tests.runner.helpers"


def _specs(n=3):
    return [
        JobSpec("T-OK", {"x": i}, entrypoint=f"{HELPERS}:ok_job")
        for i in range(n)
    ]


def _sweep(specs, store=None, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("progress", False)
    return run_sweep(specs, store, **kw)


def test_profile_merges_worker_spans_with_cross_process_parents():
    outcomes = _sweep(_specs(3), profile=True)
    assert all(o.status == "ok" for o in outcomes)
    spans = telemetry.collected_spans()
    sweeps = [s for s in spans if s["name"] == "runner.sweep"]
    jobs = [s for s in spans if s["name"] == "runner.job"]
    assert len(sweeps) == 1 and len(jobs) == 3
    sweep_span = sweeps[0]
    assert sweep_span["pid"] == os.getpid()
    for job in jobs:
        assert job["parent_id"] == sweep_span["span_id"]
        assert job["pid"] != os.getpid()  # measured inside a worker
    assert sweep_span["counters"]["ok"] == 3
    assert all(job["dur"] > 0 for job in jobs)
    # The sweep span's counters folded into this process's registry.
    assert telemetry.metrics().get("runner.sweep.ok").value == 3


def test_profile_attaches_telemetry_to_outcomes_not_payloads():
    outcomes = _sweep(_specs(2), profile=True)
    for o in outcomes:
        assert o.telemetry is not None
        assert o.telemetry["span_id"]
        assert [s["name"] for s in o.telemetry["spans"]] == ["runner.job"]
        assert o.telemetry["metrics"] == {}  # the job bumped no counter
        assert "telemetry" not in o.payload  # artifacts stay clean


def test_profile_events_carry_span_ids():
    events = EventLog()
    _sweep(_specs(2), events=events, profile=True)
    sweep_id = next(
        s["span_id"]
        for s in telemetry.collected_spans()
        if s["name"] == "runner.sweep"
    )
    for record in events.records:
        assert validate_event(record) == []
        if record["event"] in ("sweep_start", "job_start", "job_finish"):
            assert record["span"] == sweep_id
        if record["event"] == "job_finish":
            assert record["job_span"].split(".")[0] != str(os.getpid())


def test_profile_false_leaves_telemetry_dark():
    events = EventLog()
    outcomes = _sweep(_specs(2), events=events, profile=False)
    assert all(o.status == "ok" for o in outcomes)
    assert all(o.telemetry is None for o in outcomes)
    assert telemetry.collected_spans() == []
    assert not telemetry.enabled()
    assert all("span" not in r for r in events.records)


def test_profile_restores_prior_disabled_state():
    _sweep(_specs(1), profile=True)
    assert not telemetry.enabled()
    telemetry.enable()
    _sweep(_specs(1), profile=True)
    assert telemetry.enabled()


def test_cached_outcomes_skip_worker_telemetry(tmp_path):
    store = ResultStore(tmp_path / "cache")
    _sweep(_specs(2), store, profile=True)
    telemetry.reset()
    warm = _sweep(_specs(2), store, profile=True)
    assert all(o.cached for o in warm)
    assert all(o.telemetry is None for o in warm)
    spans = telemetry.collected_spans()
    assert [s["name"] for s in spans] == ["runner.sweep"]
    assert spans[0]["counters"]["cached"] == 2
