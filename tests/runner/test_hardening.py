"""Crash-safety hardening: strict log reads, checksums, orphan GC.

Each failure mode is exercised directly and deterministically, so a
regression points at the hardened component.
"""

import json
import math

import pytest

from repro import telemetry
from repro.runner.events import EventLog, read_events
from repro.runner.jobs import JobSpec
from repro.runner.pool import run_sweep
from repro.runner.report import fault_summary
from repro.runner.store import ResultStore, payload_checksum

HELPERS = "tests.runner.helpers"


def spec(name, params=None, fn=None):
    return JobSpec(
        name, params or {}, entrypoint=f"{HELPERS}:{fn or 'ok_job'}"
    )


def sweep(specs, store=None, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("progress", False)
    return run_sweep(specs, store, **kw)


def counter(name):
    return telemetry.metrics().counter(name).value


class TestTornLogRecovery:
    def test_strict_read_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"ts": 1.0, "event": "sweep_start", "jobs": 2, "workers": 1}),
            json.dumps({"ts": 2.0, "event": "job_finish", "key": "K1",
                        "job": "a", "experiment": "a", "attempt": 1,
                        "duration": 0.1, "worker": 1}),
        ]
        blob = "\n".join(lines) + "\n"
        blob += '{"ts": 3.0, "event": "job_fin'  # no trailing newline
        path.write_text(blob, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_events(path)


class TestStoreChecksum:
    def test_bitflip_is_a_miss_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec("T-OK", {"x": 3})
        (first,) = sweep([s], store)
        path = store.path_for(s)
        doc = json.loads(path.read_text())
        doc["result"]["data"]["squared"] = 999  # silent corruption
        path.write_text(json.dumps(doc), encoding="utf-8")

        before = counter("store.quarantined.checksum")
        assert store.get(s) is None  # never served as a hit
        assert not path.exists()
        assert len(list(store.quarantine_root.glob("*.json"))) == 1
        assert counter("store.quarantined.checksum") == before + 1

        # acceptance: the next sweep recomputes, and the healed artifact
        # is byte-identical to the original
        original = first.payload
        (second,) = sweep([s], store)
        assert second.status == "ok" and second.payload == original
        assert json.loads(path.read_text())["result"]["data"]["squared"] == 9

    def test_undecodable_artifact_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec("T-OK", {"x": 4})
        sweep([s], store)
        path = store.path_for(s)
        path.write_text('{"schema": 2, "key', encoding="utf-8")
        before = counter("store.quarantined.undecodable")
        assert store.get(s) is None
        assert len(list(store.quarantine_root.glob("*.json"))) == 1
        assert counter("store.quarantined.undecodable") == before + 1

    def test_quarantined_files_are_not_artifacts(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec("T-OK", {"x": 5})
        sweep([s], store)
        store.quarantine(store.path_for(s), "checksum")
        assert len(store) == 0
        assert list(store.iter_artifacts()) == []

    def test_checksum_is_format_independent(self):
        payload = {"b": [1, 2], "a": {"x": 1.5}}
        assert payload_checksum(payload) == payload_checksum(
            json.loads(json.dumps(payload, indent=4))
        )

    def test_non_finite_floats_round_trip_as_sentinels(self, tmp_path):
        """Regression: allow_nan=False must not make a NaN-producing
        job un-storable; non-finite floats become sentinel strings."""
        store = ResultStore(tmp_path)
        s = spec("T-NAN", {"x": 1})
        payload = {
            "experiment_id": "T-NAN", "title": "t", "tables": [],
            "checks": {}, "data": {
                "nan": float("nan"), "inf": float("inf"),
                "ninf": -math.inf, "fine": 2.5,
            },
        }
        path = store.put(s, payload)
        # strict parsers accept the file (json.loads with no NaN leeway)
        doc = json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(c))
        data = doc["result"]["data"]
        assert data == {
            "nan": "NaN", "inf": "Infinity", "ninf": "-Infinity", "fine": 2.5
        }
        assert store.get(s) is not None  # checksum covers the sentinels


class TestOrphanGC:
    def _orphan(self, store, name=".tmp-dead1234.json"):
        d = store.root / "T-OK"
        d.mkdir(parents=True, exist_ok=True)
        stray = d / name
        stray.write_text('{"half": tru', encoding="utf-8")
        return stray

    def test_orphans_are_not_counted_or_iterated(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep([spec("T-OK", {"x": 1})], store)
        self._orphan(store)
        assert len(store) == 1
        assert len(list(store.iter_artifacts())) == 1

    def test_gc_removes_only_orphans(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep([spec("T-OK", {"x": 1})], store)
        stray = self._orphan(store)
        before = counter("store.orphans_removed")
        removed = store.gc_orphans()
        assert removed == [stray]
        assert not stray.exists()
        assert len(store) == 1  # the real artifact survived
        assert counter("store.orphans_removed") == before + 1
        assert store.gc_orphans() == []
        assert counter("store.orphans_removed") == before + 1

    def test_sweep_startup_garbage_collects(self, tmp_path):
        store = ResultStore(tmp_path)
        stray = self._orphan(store)
        log = EventLog()
        sweep([spec("T-OK", {"x": 1})], store, events=log)
        assert not stray.exists()
        assert log.counts["store_gc"] == 1


class TestFaultSummary:
    def test_quiet_on_a_clean_sweep(self, tmp_path):
        outcomes = sweep([spec("T-OK")], ResultStore(tmp_path))
        assert fault_summary(outcomes) is None

    def test_tabulates_non_clean_attempts(self, tmp_path):
        specs = [
            spec("T-OK", {"x": 1}),
            spec("T-ERR", {"message": "boom"}, fn="error_job"),
        ]
        outcomes = sweep(specs, None, retries=1)
        table = fault_summary(outcomes)
        rows = [r for r in table.rows if r[0].startswith("T-ERR")]
        assert len(rows) == 1 and len(table.rows) == 1  # T-OK ran clean
        assert rows[0][1] == "2"  # two charged error attempts
        assert rows[0][-1] == "failed"
