"""GraphCache behaviour: hits, misses, corruption, warming, sweeps.

Complements ``tests/cdag/test_artifact.py`` (pure serialisation): here
the cache *layer* is under test — counter accounting, process-local vs
on-disk hits, quarantine-and-rebuild on corruption, environment-variable
activation, and the scheduler integration (`run_sweep(graph_cache=...)`)
where real job processes share one bundle store.
"""

import os

import numpy as np
import pytest

from repro.bilinear import strassen
from repro.cdag import artifact, build_cdag
from repro.pebbling import CacheExecutor
from repro.runner.events import EventLog
from repro.runner.graphcache import (
    GraphCache,
    activate,
    counter_snapshot,
    deactivate,
)
from repro.runner.jobs import JobSpec
from repro.runner.pool import run_sweep
from repro.runner.store import ResultStore
from repro.schedules import recursive_schedule

HELPERS = "tests.runner.helpers"


@pytest.fixture(autouse=True)
def _isolated_cache_state():
    """No cross-test leakage of the process-global cache hook."""
    prev = artifact.set_active_cache(None)
    yield
    artifact.set_active_cache(prev)
    artifact.reset_active_cache()


def _delta(before, after) -> dict:
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] - before.get(name, 0)
    }


class TestHitMissAccounting:
    def test_miss_then_local_hit_then_disk_hit(self, tmp_path):
        alg = strassen()
        cache = GraphCache(tmp_path)

        before = counter_snapshot()
        g1 = cache.get_graph(alg, 2)
        d = _delta(before, counter_snapshot())
        assert d["graphcache.miss"] == 1 and d["graphcache.miss.graph"] == 1

        before = counter_snapshot()
        g2 = cache.get_graph(alg, 2)
        d = _delta(before, counter_snapshot())
        assert d == {"graphcache.hit": 1, "graphcache.hit.graph": 1}
        assert g2 is g1  # process-local map, not a reload

        # A fresh instance is what a new worker process sees: empty
        # local maps, so the hit must come off disk (memmapped).
        before = counter_snapshot()
        g3 = GraphCache(tmp_path).get_graph(alg, 2)
        d = _delta(before, counter_snapshot())
        assert d == {"graphcache.hit": 1, "graphcache.hit.graph": 1}
        assert g3 is not g1
        assert isinstance(g3.pred_indptr, np.memmap)
        np.testing.assert_array_equal(g3.pred_indices, g1.pred_indices)

    def test_schedule_and_plan_bundles_hit_across_instances(self, tmp_path):
        alg = strassen()
        artifact.set_active_cache(GraphCache(tmp_path))
        g = build_cdag(alg, 2)
        CacheExecutor(g).compile(recursive_schedule(g))

        artifact.set_active_cache(GraphCache(tmp_path))
        before = counter_snapshot()
        g2 = build_cdag(alg, 2)
        CacheExecutor(g2).compile(recursive_schedule(g2))
        d = _delta(before, counter_snapshot())
        assert d["graphcache.hit"] == 3  # graph + schedule + plan
        assert "graphcache.miss" not in d
        assert d["graphcache.hit.schedule"] == 1
        assert d["graphcache.hit.plan"] == 1

    def test_results_identical_between_cold_and_warm(self, tmp_path):
        alg = strassen()

        def simulate():
            g = build_cdag(alg, 3)
            return CacheExecutor(g).run(recursive_schedule(g), 48, "belady")

        cold = simulate()  # no cache active
        artifact.set_active_cache(GraphCache(tmp_path))
        first = simulate()  # populates the store
        artifact.set_active_cache(GraphCache(tmp_path))
        warm = simulate()  # everything served from disk
        assert cold == first == warm


class TestCorruption:
    def _corrupt_one(self, root, mutate):
        bundles = [
            p for p in root.iterdir()
            if p.is_dir() and p.name not in ("schedules", "plans", "corrupt")
        ]
        assert bundles
        target = bundles[0] / "pred_indices.npy"
        mutate(target)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.write_bytes(
                bytes(b ^ 0x01 for b in p.read_bytes()[:-1]) + b"\x00"
            ),
            lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        ],
        ids=["bitflip", "truncated"],
    )
    def test_corrupt_bundle_is_quarantined_and_rebuilt(self, tmp_path, mutate):
        alg = strassen()
        GraphCache(tmp_path).get_graph(alg, 2)
        self._corrupt_one(tmp_path, mutate)

        before = counter_snapshot()
        g = GraphCache(tmp_path).get_graph(alg, 2)  # fresh = new process
        d = _delta(before, counter_snapshot())
        assert d["graphcache.quarantined"] == 1
        assert d["graphcache.miss"] == 1  # corruption is a miss, not an error
        assert g.n_vertices == build_cdag(alg, 2).n_vertices
        quarantined = list((tmp_path / "corrupt").iterdir())
        assert len(quarantined) == 1
        # The rebuild republished a clean bundle under the same key.
        assert (tmp_path / quarantined[0].name / "meta.json").exists()


class TestWarmEntriesGC:
    def test_warm_populates_every_bundle_kind(self, tmp_path):
        cache = GraphCache(tmp_path)
        stats = cache.warm(strassen(), (2,))
        assert stats["graphcache.miss"] == 5  # graph + 2 schedules + 2 plans
        kinds = sorted(e["kind"] for e in cache.entries())
        assert kinds == ["graph", "plan", "plan", "schedule", "schedule"]
        restats = GraphCache(tmp_path).warm(strassen(), (2,))
        assert restats["graphcache.miss"] == 0
        assert restats["graphcache.hit"] == 5

    def test_warm_rejects_unknown_family(self, tmp_path):
        with pytest.raises(ValueError, match="unknown schedule"):
            GraphCache(tmp_path).warm(strassen(), (2,), schedules=("bogus",))

    def test_gc_reaps_staging_dirs_and_clears(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.warm(strassen(), (2,))
        (tmp_path / ".tmp-dead").mkdir()
        removed = cache.gc()
        assert [p.name for p in removed] == [".tmp-dead"]
        assert len(cache.entries()) == 5
        cache.gc(clear=True)
        assert cache.entries() == []

    def test_gc_by_age(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.warm(strassen(), (2,))
        assert cache.gc(max_age_s=3600.0) == []
        old = [e["path"] for e in cache.entries()][0]
        os.utime(old, (1.0, 1.0))
        removed = cache.gc(max_age_s=3600.0)
        assert [str(p) for p in removed] == [old]


class TestActivation:
    def test_env_var_bootstraps_lazily(self, tmp_path, monkeypatch):
        artifact.reset_active_cache()
        monkeypatch.setenv(artifact.ENV_VAR, str(tmp_path / "envcache"))
        cache = artifact.active_cache()
        assert isinstance(cache, GraphCache)
        assert cache.root == tmp_path / "envcache"

    def test_activate_reuses_same_root(self, tmp_path):
        a = activate(tmp_path)
        assert activate(tmp_path) is a
        b = activate(tmp_path / "other")
        assert b is not a
        deactivate()
        assert artifact.active_cache() is None


class TestSweepIntegration:
    def _specs(self):
        return [
            JobSpec(
                "T-GRAPH", {"r": 2, "M": M}, entrypoint=f"{HELPERS}:graph_job"
            )
            for M in (16, 24, 32, 48)
        ]

    def test_sweep_shares_bundles_and_reports_counters(self, tmp_path):
        events = EventLog()
        outcomes = run_sweep(
            self._specs(),
            ResultStore(tmp_path / "results"),
            workers=2,
            progress=False,
            events=events,
            graph_cache=tmp_path / "graphs",
        )
        assert all(o.status == "ok" for o in outcomes)
        finish = [r for r in events.records if r["event"] == "sweep_finish"]
        gc_stats = finish[0]["graphcache"]
        # 4 jobs × (graph + schedule + plan) = 12 acquisitions; the
        # two jobs that start first pay at most 3 misses each building
        # the store, the two that follow hit.
        assert gc_stats["hit"] + gc_stats.get("miss", 0) == 12
        assert gc_stats["hit"] >= 6
        assert (tmp_path / "graphs" / "schedules").is_dir()

    def test_second_sweep_is_all_hits(self, tmp_path):
        kwargs = dict(workers=2, progress=False)
        run_sweep(
            self._specs(), None, graph_cache=tmp_path / "graphs", **kwargs
        )
        events = EventLog()
        outcomes = run_sweep(
            self._specs(), None,
            events=events, graph_cache=tmp_path / "graphs", **kwargs,
        )
        assert all(o.ok for o in outcomes)
        gc_stats = [
            r for r in events.records if r["event"] == "sweep_finish"
        ][0]["graphcache"]
        assert gc_stats["hit"] == 12
        assert "miss" not in gc_stats
