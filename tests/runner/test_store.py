"""Result store: atomicity, determinism, serialisation round-trips."""

import json

from repro.experiments.harness import ExperimentResult
from repro.runner.jobs import JobSpec
from repro.runner.store import (
    ResultStore,
    payload_to_result,
    result_to_payload,
)
from repro.utils.tables import TextTable


def _sample_result() -> ExperimentResult:
    table = TextTable(["k", "bound", "measured"], title="sample")
    table.add_row([1, 77, 18])
    table.add_row([2, 539, 3.25])
    return ExperimentResult(
        experiment_id="T-RT",
        title="round trip",
        tables=[table],
        checks={"a": True, "b": False},
        data={"pair": (3, 4), "nested": {"x": 1.5}},
    )


class TestSerialisation:
    def test_render_survives_round_trip(self):
        original = _sample_result()
        rebuilt = payload_to_result(result_to_payload(original))
        assert rebuilt.render() == original.render()
        assert rebuilt.checks == original.checks
        assert rebuilt.all_checks_pass == original.all_checks_pass

    def test_payload_is_json_native(self):
        payload = result_to_payload(_sample_result())
        blob = json.dumps(payload, sort_keys=True)
        assert json.loads(blob) == payload
        # tuples canonicalise to lists
        assert payload["data"]["pair"] == [3, 4]

    def test_numpy_payloads_jsonify(self):
        import numpy as np

        result = ExperimentResult(
            "T-NP", "numpy", data={"a": np.int64(3), "b": np.float64(0.5),
                                   "v": np.arange(3)}
        )
        payload = result_to_payload(result)
        assert payload["data"] == {"a": 3, "b": 0.5, "v": [0, 1, 2]}


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec("T-RT", {"p": 1})
        assert store.get(spec) is None
        store.put(spec, result_to_payload(_sample_result()))
        artifact = store.get(spec)
        assert artifact is not None
        assert artifact["key"] == spec.cache_key
        assert payload_to_result(artifact["result"]).experiment_id == "T-RT"

    def test_changed_params_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(JobSpec("T-RT", {"p": 1}), result_to_payload(_sample_result()))
        assert store.get(JobSpec("T-RT", {"p": 2})) is None

    def test_writes_are_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec("T-RT", {"p": 1})
        path = store.put(spec, result_to_payload(_sample_result()))
        first = path.read_bytes()
        store.put(spec, result_to_payload(_sample_result()))
        assert path.read_bytes() == first

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec("T-RT")
        path = store.put(spec, result_to_payload(_sample_result()))
        path.write_text("{ truncated", encoding="utf-8")
        assert store.get(spec) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec("T-RT")
        path = store.put(spec, result_to_payload(_sample_result()))
        artifact = json.loads(path.read_text())
        artifact["key"] = "0" * 64
        path.write_text(json.dumps(artifact), encoding="utf-8")
        assert store.get(spec) is None

    def test_no_temp_droppings(self, tmp_path):
        store = ResultStore(tmp_path)
        for p in range(3):
            store.put(JobSpec("T-RT", {"p": p}),
                      result_to_payload(_sample_result()))
        leftovers = [f for f in tmp_path.rglob("*") if f.name.startswith(".tmp")]
        assert leftovers == []
        assert len(list(tmp_path.glob("*/*.json"))) == 3

