"""Bundle serialisation: round-trip determinism, content keys, and
defect detection.

The graph cache is only safe if a reloaded bundle is *indistinguishable*
from an in-process build — same arrays, same simulation results, same
eviction traces — and if every corruption is detected rather than
decoded.  These tests pin both properties at the artifact layer (no
:class:`~repro.runner.graphcache.GraphCache` involved; that layer has
its own tests under ``tests/runner``).
"""

import numpy as np
import pytest

from repro.bilinear import strassen
from repro.bilinear.compose import strassen_x_classical
from repro.cdag import artifact, build_cdag
from repro.errors import GraphCacheError
from repro.pebbling.executor import EXECUTOR_VERSION, CacheExecutor
from repro.schedules import rank_order_schedule, recursive_schedule
from repro.simcore import SchedulePlan


@pytest.fixture(autouse=True)
def _no_active_cache():
    """These tests drive the serialisation API directly; a cache
    activated by the environment would double-handle the bundles."""
    prev = artifact.set_active_cache(None)
    yield
    artifact.set_active_cache(prev)


def _graph_round_trip(tmp_path, alg, r):
    g = build_cdag(alg, r)
    path = tmp_path / artifact.graph_key(alg, r)
    artifact.write_bundle(path, artifact.graph_to_arrays(g), {"kind": "graph"})
    arrays, meta = artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)
    return g, artifact.graph_from_arrays(alg, r, arrays), arrays, meta


class TestGraphRoundTrip:
    def test_arrays_and_layout_survive(self, tmp_path):
        g, loaded, arrays, meta = _graph_round_trip(tmp_path, strassen(), 3)
        assert loaded.n_vertices == g.n_vertices
        assert loaded.n_edges == g.n_edges
        np.testing.assert_array_equal(loaded.pred_indptr, g.pred_indptr)
        np.testing.assert_array_equal(loaded.pred_indices, g.pred_indices)
        np.testing.assert_array_equal(loaded.succ_indptr, g.succ_indptr)
        np.testing.assert_array_equal(loaded.succ_indices, g.succ_indices)
        np.testing.assert_array_equal(loaded.is_copy, g.is_copy)
        np.testing.assert_array_equal(loaded.rank, g.rank)
        assert set(loaded.slabs) == set(g.slabs)

    def test_loaded_arrays_are_memory_mapped(self, tmp_path):
        _, loaded, arrays, _ = _graph_round_trip(tmp_path, strassen(), 2)
        assert isinstance(arrays["pred_indptr"], np.memmap)
        assert isinstance(loaded.pred_indices, np.memmap)

    def test_meta_records_checksums_and_shapes(self, tmp_path):
        _, _, _, meta = _graph_round_trip(tmp_path, strassen(), 2)
        assert meta["format"] == artifact.FORMAT_VERSION
        for name in artifact.GRAPH_ARRAY_NAMES:
            entry = meta["arrays"][name]
            assert len(entry["sha256"]) == 64
            assert entry["dtype"] in ("int64", "bool")

    @pytest.mark.parametrize("schedule_fn", [recursive_schedule, rank_order_schedule])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_simulation_bit_identical(self, tmp_path, schedule_fn, policy):
        """A memmapped reload must reproduce every IOResult *and* the
        full per-step I/O trace, across schedules, policies and cache
        sizes — the byte-identical-artifacts acceptance bar."""
        g, loaded, _, _ = _graph_round_trip(tmp_path, strassen(), 3)
        for M in (12, 48):
            trace_a: list = []
            trace_b: list = []
            res_a = CacheExecutor(g).run(
                schedule_fn(g), M, policy, io_trace=trace_a
            )
            res_b = CacheExecutor(loaded).run(
                schedule_fn(loaded), M, policy, io_trace=trace_b
            )
            assert res_a == res_b
            assert trace_a == trace_b


class TestPlanRoundTrip:
    def test_plan_arrays_survive(self, tmp_path):
        g = build_cdag(strassen(), 3)
        ex = CacheExecutor(g)
        plan = ex.compile(recursive_schedule(g))
        path = tmp_path / "plan"
        artifact.write_bundle(path, plan.to_arrays(), {"kind": "plan"})
        arrays, _ = artifact.read_bundle(path, artifact.PLAN_ARRAY_NAMES)
        loaded = SchedulePlan.from_arrays(arrays, validated=True)
        assert loaded.n_steps == plan.n_steps
        for name, arr in plan.to_arrays().items():
            np.testing.assert_array_equal(arrays[name], arr)
        # Simulating from the loaded plan matches the compiled one.
        res_a = ex.run(recursive_schedule(g), 48, "belady")
        ex2 = CacheExecutor(g)
        ex2._plans[b"x"] = loaded  # force use of the loaded plan object
        res_b = ex2.run(plan.schedule, 48, "belady", validate=False)
        assert res_a == res_b


class TestContentKeys:
    def test_graph_key_separates_depth_and_algorithm(self):
        s = strassen()
        assert artifact.graph_key(s, 2) != artifact.graph_key(s, 3)
        assert artifact.graph_key(s, 2) != artifact.graph_key(
            strassen_x_classical(), 2
        )
        assert artifact.graph_key(s, 2) == artifact.graph_key(strassen(), 2)

    def test_schedule_key_separates_family_and_version(self):
        gkey = artifact.graph_key(strassen(), 2)
        a = artifact.schedule_key(gkey, "recursive", "1")
        assert a != artifact.schedule_key(gkey, "rank_order", "1")
        assert a != artifact.schedule_key(gkey, "recursive", "2")

    def test_plan_key_separates_schedule_and_executor_version(self):
        gkey = artifact.graph_key(strassen(), 2)
        a = artifact.plan_key(gkey, "d" * 32, EXECUTOR_VERSION)
        assert a != artifact.plan_key(gkey, "e" * 32, EXECUTOR_VERSION)
        assert a != artifact.plan_key(gkey, "d" * 32, EXECUTOR_VERSION + "x")


class TestDefectDetection:
    def _bundle(self, tmp_path):
        g = build_cdag(strassen(), 2)
        path = tmp_path / "bundle"
        artifact.write_bundle(path, artifact.graph_to_arrays(g), {"kind": "graph"})
        return path

    def test_bitflip_is_detected(self, tmp_path):
        path = self._bundle(tmp_path)
        target = path / "pred_indices.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(GraphCacheError, match="checksum"):
            artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)

    def test_truncation_is_detected(self, tmp_path):
        path = self._bundle(tmp_path)
        target = path / "is_copy.npy"
        target.write_bytes(target.read_bytes()[:40])
        with pytest.raises(GraphCacheError):
            artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)

    def test_missing_meta_and_wrong_format(self, tmp_path):
        path = self._bundle(tmp_path)
        meta = path / "meta.json"
        original = meta.read_text(encoding="utf-8")
        meta.unlink()
        with pytest.raises(GraphCacheError, match="meta"):
            artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)
        meta.write_text(original.replace('"format": 1', '"format": 99'))
        with pytest.raises(GraphCacheError, match="format"):
            artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)

    def test_unexpected_array_set_is_detected(self, tmp_path):
        path = self._bundle(tmp_path)
        with pytest.raises(GraphCacheError, match="arrays"):
            artifact.read_bundle(path, artifact.PLAN_ARRAY_NAMES)

    def test_vertex_count_mismatch_is_detected(self, tmp_path):
        path = self._bundle(tmp_path)
        arrays, _ = artifact.read_bundle(path, artifact.GRAPH_ARRAY_NAMES)
        with pytest.raises(GraphCacheError, match="vertex count"):
            artifact.graph_from_arrays(strassen(), 3, arrays)

    def test_lost_publish_race_keeps_winner(self, tmp_path):
        path = self._bundle(tmp_path)
        before = (path / "meta.json").stat().st_mtime_ns
        g = build_cdag(strassen(), 2)
        artifact.write_bundle(path, artifact.graph_to_arrays(g), {"kind": "graph"})
        assert (path / "meta.json").stat().st_mtime_ns == before
        assert not list(tmp_path.glob(".tmp-*"))
