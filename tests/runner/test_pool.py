"""Scheduler: caching, resume, retries, crash isolation, timeouts.

These tests exercise real job processes but keep every job body
trivial, so the whole module runs in a few seconds.
"""

import multiprocessing

import pytest

from repro.runner.events import EventLog, validate_event
from repro.runner.jobs import JobSpec
from repro.runner.pool import run_sweep
from repro.runner.store import ResultStore

HELPERS = "tests.runner.helpers"


def spec(name, params=None, seed=None, fn=None):
    return JobSpec(
        name, params or {}, seed=seed,
        entrypoint=f"{HELPERS}:{fn or 'ok_job'}",
    )


def sweep(specs, store=None, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("progress", False)
    return run_sweep(specs, store, **kw)


class TestHappyPath:
    def test_all_jobs_complete(self, tmp_path):
        specs = [spec("T-OK", {"x": x}) for x in range(4)]
        outcomes = sweep(specs, ResultStore(tmp_path))
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert [o.payload["data"]["squared"] for o in outcomes] == [0, 1, 4, 9]
        assert all(o.worker is not None for o in outcomes)

    def test_outcomes_preserve_input_order(self, tmp_path):
        specs = [spec("T-OK", {"x": x}) for x in (5, 3, 8, 1)]
        outcomes = sweep(specs, ResultStore(tmp_path), workers=4)
        assert [o.payload["data"]["x"] for o in outcomes] == [5, 3, 8, 1]

    def test_dict_returning_jobs_are_wrapped(self):
        (o,) = sweep([spec("T-DICT", {"value": 9}, fn="dict_job")])
        assert o.ok and o.payload["data"]["value"] == 9

    def test_store_is_optional(self):
        (o,) = sweep([spec("T-OK")])
        assert o.status == "ok"


class TestCaching:
    def test_second_run_is_at_least_90pct_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [spec("T-OK", {"x": x}) for x in range(10)]
        first = EventLog()
        sweep(specs, store, events=first)
        assert first.counts["cache_hit"] == 0
        second = EventLog()
        outcomes = sweep(specs, store, events=second)
        # acceptance criterion: >= 90% of the rerun served from cache,
        # measured from the event log
        assert second.counts["cache_hit"] >= 0.9 * len(specs)
        assert all(o.cached for o in outcomes)

    def test_identical_sweeps_yield_byte_identical_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "a")
        specs = [spec("T-OK", {"x": x}) for x in range(3)]
        sweep(specs, store)
        bytes_first = {
            p.name: p.read_bytes() for p in (tmp_path / "a").rglob("*.json")
        }
        store2 = ResultStore(tmp_path / "b")
        sweep(specs, store2)
        bytes_second = {
            p.name: p.read_bytes() for p in (tmp_path / "b").rglob("*.json")
        }
        assert bytes_first == bytes_second
        assert len(bytes_first) == 3

    def test_fresh_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [spec("T-OK", {"x": 1})]
        sweep(specs, store)
        events = EventLog()
        (o,) = sweep(specs, store, fresh=True, events=events)
        assert o.status == "ok" and events.counts["cache_hit"] == 0

    def test_changed_param_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep([spec("T-OK", {"x": 1})], store)
        events = EventLog()
        (o,) = sweep([spec("T-OK", {"x": 2})], store, events=events)
        assert o.status == "ok" and events.counts["cache_hit"] == 0

    def test_resume_after_interruption(self, tmp_path):
        """Simulate an interrupted sweep by deleting one artifact."""
        store = ResultStore(tmp_path)
        specs = [spec("T-OK", {"x": x}) for x in range(3)]
        sweep(specs, store)
        store.discard(specs[1])  # "lost" mid-sweep
        events = EventLog()
        outcomes = sweep(specs, store, events=events)
        assert [o.status for o in outcomes] == ["cached", "ok", "cached"]
        assert events.counts["cache_hit"] == 2
        assert events.counts["job_finish"] == 1


class TestSeeds:
    def test_same_seed_hits_new_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        (o,) = sweep([spec("T-SEEDED", seed=1, fn="seeded_job")], store)
        assert o.status == "ok" and o.payload["data"]["seed"] == 1
        (again,) = sweep([spec("T-SEEDED", seed=1, fn="seeded_job")], store)
        assert again.cached
        (other,) = sweep([spec("T-SEEDED", seed=2, fn="seeded_job")], store)
        assert other.status == "ok" and other.payload["data"]["seed"] == 2

    def test_seed_on_seedless_job_fails_cleanly(self):
        (o,) = sweep(
            [spec("T-SEEDLESS", seed=3, fn="seedless_job")], retries=0
        )
        assert o.status == "failed"
        assert "seed" in o.error


class TestRetries:
    def test_retry_then_succeed(self, tmp_path):
        s = spec("T-FLAKY", {"marker_dir": str(tmp_path / "m"),
                             "fail_times": 1}, fn="flaky_job")
        events = EventLog()
        (o,) = sweep([s], retries=2, events=events)
        assert o.status == "ok"
        assert [a.kind for a in o.attempts] == ["error", "ok"]
        assert events.counts["job_retry"] == 1
        assert o.payload["data"]["attempts_needed"] == 2

    def test_retry_then_fail_accounting(self, tmp_path):
        events = EventLog()
        (o,) = sweep(
            [spec("T-ERR", {"message": "kaput"}, fn="error_job")],
            retries=1, events=events,
        )
        assert o.status == "failed"
        assert "kaput" in o.error
        # one original attempt + one retry, both charged
        assert [a.kind for a in o.attempts] == ["error", "error"]
        assert all(a.charged for a in o.attempts)
        assert events.counts["job_retry"] == 1
        assert events.counts["job_failed"] == 1
        failed = [r for r in events.records if r["event"] == "job_failed"]
        assert failed[0]["attempts"] == 2
        assert len(failed[0]["retry_history"]) == 2

    def test_failure_does_not_poison_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        (o,) = sweep([spec("T-ERR", fn="error_job")], store, retries=0)
        assert o.status == "failed"
        assert len(store) == 0

    def test_zero_retries_means_one_attempt(self):
        (o,) = sweep([spec("T-ERR", fn="error_job")], retries=0)
        assert len(o.attempts) == 1


class TestCrashes:
    def test_sweep_survives_a_crashing_job(self, tmp_path):
        """Acceptance: one injected hard crash (os._exit in the worker)
        fails only its own job; every other job completes; the failure
        carries its retry history."""
        store = ResultStore(tmp_path)
        specs = [spec("T-OK", {"x": x}) for x in range(4)]
        specs.insert(2, spec("T-CRASH", fn="crash_job"))
        events = EventLog()
        outcomes = sweep(specs, store, retries=1, events=events)
        by_label = {o.spec.label: o for o in outcomes}
        crash = by_label["T-CRASH"]
        assert crash.status == "failed"
        assert any(a.kind == "crash" for a in crash.attempts)
        # charged exactly retries+1 at-fault attempts
        assert sum(1 for a in crash.attempts if a.charged) == 2
        others = [o for o in outcomes if o.spec.label != "T-CRASH"]
        assert all(o.status == "ok" for o in others)
        failed_events = [r for r in events.records if r["event"] == "job_failed"]
        assert len(failed_events) == 1
        assert failed_events[0]["retry_history"]

    def test_crash_then_recover(self, tmp_path):
        """A job that crashes once and then succeeds is retried and
        completes."""
        s = spec("T-FLAKYCRASH", {"marker_dir": str(tmp_path / "m"),
                                  "crash_times": 1}, fn="flaky_crash_job")
        (o,) = sweep([s], retries=2)
        assert o.status == "ok"
        assert any(a.kind == "crash" for a in o.attempts)
        assert o.attempts[-1].kind == "ok"

    def test_innocent_bystanders_are_never_charged(self, tmp_path):
        """Jobs that ran in the same sweep as a crasher must not burn
        their retry budget."""
        specs = [spec("T-OK", {"x": x}) for x in range(3)]
        specs.append(spec("T-CRASH", fn="crash_job"))
        outcomes = sweep(specs, retries=0, workers=2)
        by_label = {o.spec.label: o for o in outcomes}
        assert by_label["T-CRASH"].status == "failed"
        for o in outcomes:
            if o.spec.label == "T-CRASH":
                continue
            assert o.status == "ok"
            assert all(not a.charged for a in o.attempts[:-1])

    def test_job_running_beside_a_crash_is_untouched(self):
        """The crash is charged to the job whose process died, and only
        to it: a job still running beside it completes on its first
        attempt."""
        specs = [
            spec("T-SLEEPY", {"duration": 1.0}, fn="sleepy_job"),
            spec("T-CRASH", fn="crash_job"),
        ]
        bystander, crash = sweep(specs, retries=0, workers=2)
        assert [a.kind for a in crash.attempts] == ["crash"]
        assert bystander.status == "ok"
        assert [a.kind for a in bystander.attempts] == ["ok"]


class TestTimeouts:
    def test_overdue_job_is_killed_and_failed(self):
        import time

        t0 = time.monotonic()
        (o,) = sweep(
            [spec("T-SLEEPY", {"duration": 30.0}, fn="sleepy_job")],
            timeout=0.4, retries=0, workers=1,
        )
        elapsed = time.monotonic() - t0
        assert o.status == "failed"
        assert [a.kind for a in o.attempts] == ["timeout"]
        assert "timeout" in o.error
        assert elapsed < 15  # nowhere near the 30 s sleep

    def test_fast_jobs_unaffected_by_timeout(self, tmp_path):
        outcomes = sweep(
            [spec("T-OK", {"x": x}) for x in range(3)],
            ResultStore(tmp_path), timeout=30.0,
        )
        assert all(o.status == "ok" for o in outcomes)

    def test_job_running_beside_a_timeout_is_untouched(self):
        """Enforcing the timeout kills only the overdue job's process.
        The bystander starts when the first job ends (~1 s), is still
        running when the overdue job is killed (~2 s), and finishes
        within its own limit (~2.5 s) on its first attempt."""
        specs = [
            spec("T-SLEEPY", {"duration": 1.0}, fn="sleepy_job"),
            spec("T-SLEEPY", {"duration": 30.0}, fn="sleepy_job"),
            spec("T-SLEEPY", {"duration": 1.5}, fn="sleepy_job"),
        ]
        first, overdue, bystander = sweep(
            specs, timeout=2.0, retries=0, workers=2
        )
        assert first.status == "ok"
        assert [a.kind for a in overdue.attempts] == ["timeout"]
        assert bystander.status == "ok"
        assert [a.kind for a in bystander.attempts] == ["ok"]


class TestCleanup:
    def test_no_job_process_outlives_a_raising_sweep(self, tmp_path):
        """An exception in the scheduler (here: the store failing to
        publish the first finished job) kills the job still running
        beside it before it propagates."""

        class FailingStore(ResultStore):
            def put(self, spec, result_payload):
                raise OSError("disk full")

        before = set(multiprocessing.active_children())
        specs = [
            spec("T-OK"),
            spec("T-SLEEPY", {"duration": 30.0}, fn="sleepy_job"),
        ]
        with pytest.raises(OSError, match="disk full"):
            sweep(specs, FailingStore(tmp_path), workers=2)
        assert set(multiprocessing.active_children()) <= before


class TestEventStream:
    def test_every_emitted_record_is_schema_valid(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = ResultStore(tmp_path / "cache")
        specs = [spec("T-OK", {"x": 1}), spec("T-ERR", fn="error_job")]
        with EventLog(path) as events:
            sweep(specs, store, retries=1, events=events)
        with EventLog(path) as events:
            sweep(specs, store, retries=0, events=events)
        from repro.runner.events import read_events

        records = read_events(path)
        for record in records:
            assert validate_event(record) == [], record
        kinds = {r["event"] for r in records}
        assert {"sweep_start", "sweep_finish", "job_start", "job_finish",
                "job_retry", "job_failed", "cache_hit"} <= kinds

    def test_sweep_finish_totals(self):
        events = EventLog()
        sweep([spec("T-OK"), spec("T-ERR", fn="error_job")],
              retries=0, events=events)
        (fin,) = [r for r in events.records if r["event"] == "sweep_finish"]
        assert fin["ok"] == 1 and fin["failed"] == 1 and fin["cached"] == 0


class TestExperimentIntegration:
    """End-to-end through the real registry (small experiments only)."""

    def test_registry_jobs_run_and_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [JobSpec("E1"), JobSpec("E2", {"r": 2})]
        outcomes = sweep(specs, store)
        assert all(o.status == "ok" for o in outcomes)
        assert all(o.payload["checks"] for o in outcomes)
        again = sweep(specs, store)
        assert all(o.cached for o in again)

    def test_seeded_registry_job_is_cache_correct(self, tmp_path):
        store = ResultStore(tmp_path)
        (o,) = sweep([JobSpec("E8", {"r": 2}, seed=5)], store)
        assert o.status == "ok"
        (hit,) = sweep([JobSpec("E8", {"r": 2}, seed=5)], store)
        assert hit.cached
        (miss,) = sweep([JobSpec("E8", {"r": 2}, seed=6)], store)
        assert miss.status == "ok" and not miss.cached


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_count_does_not_change_results(tmp_path, workers):
    specs = [spec("T-OK", {"x": x}) for x in range(5)]
    outcomes = sweep(specs, ResultStore(tmp_path / str(workers)),
                     workers=workers)
    assert [o.payload["data"]["squared"] for o in outcomes] == [
        0, 1, 4, 9, 16
    ]
