"""Self-test of the benchmark (not part of tier-1):

    PYTHONPATH=src python -m pytest benchsuite -q

Runs every workload at its ``--smoke`` size (r <= 3, k = 2, one G_2
case), so it takes seconds, not the minutes of a measured run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import layers
import run
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """One traced smoke run of every workload: (exit code, --json-out doc)."""
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    code = run.main(["--smoke", "--seconds", "0", "--trace", "1", "--json-out", str(out)])
    return code, json.loads(out.read_text())


def test_declarations_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    names = [*spec.WORKLOADS, *(m.name for m in spec.END_TO_END),
             *(m.name for m in spec.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_smoke_run_emits_exactly_the_declared_metrics(traced_smoke):
    code, doc = traced_smoke
    assert code == 0
    e2e = {m.name for m in spec.END_TO_END}
    per_layer = {m.name for m in spec.PER_LAYER}
    assert set(doc["workloads"]) == set(spec.WORKLOADS)
    for w in doc["workloads"].values():
        assert w["failed"] == 0 and w["attempted"] > 0
        assert set(w["metrics"]) == e2e
        assert set(w["layers"]) == per_layer
        assert w["missing"] == []
        assert all(m["median"] > 0 for m in w["metrics"].values())


def test_layer_metrics_cover_the_computation_they_measure(traced_smoke):
    _, doc = traced_smoke
    layers_of = {name: w["layers"] for name, w in doc["workloads"].items()}
    assert layers_of["io_sweep"]["simcore.lru_s"]["median"] > 0
    assert layers_of["io_sweep"]["simcore.kernel.fallback"]["median"] > 0
    assert layers_of["hk_dominators"]["flow.max_flow_s"]["median"] > 0
    assert layers_of["routing_cert"]["routing.verify_s"]["median"] > 0
    assert layers_of["routing_cert"]["simcore.configs"]["median"] == 0


def test_final_line_is_the_contract_object(capsys):
    code = run.main(["--smoke", "--workload", "io_n32", "--seconds", "0"])
    line = _last_json_line(capsys.readouterr().out)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in spec.END_TO_END]
    for m in spec.END_TO_END:
        assert line["metrics"][m.name]["unit"] == m.unit


def test_corrupted_oracle_fails_the_run(monkeypatch, capsys, tmp_path):
    expected = run.load_expected()
    key = next(iter(expected["smoke"]["io_sweep"]["ops"]))
    expected["smoke"]["io_sweep"]["ops"][key][0] += 1
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    out = tmp_path / "bad.json"
    code = run.main(["--smoke", "--workload", "io_sweep", "--seconds", "0",
                     "--json-out", str(out)])
    line = _last_json_line(capsys.readouterr().out)
    assert code == 1
    assert line["correct"] is False and line["failed"] > 0
    w = json.loads(out.read_text())["workloads"]["io_sweep"]
    assert w["fail_ratio"] > 0
    assert any(f.startswith(key) for f in w["failures"])


def test_traced_routing_spans_reproduce_the_certificate():
    from repro.bilinear import strassen, winograd
    from repro.routing.theorem2 import theorem2_certificate

    result = run.run_child("routing_cert", 0, smoke=True, trace=True)
    for name, alg in (("strassen", strassen()), ("winograd", winograd())):
        cert = theorem2_certificate(alg, 2)
        report = cert.report
        assert result["outputs"][f"{name}/k2"] == [
            report.n_paths, report.max_vertex_hits, report.max_meta_hits,
            cert.lemma3_max_hits,
        ]
    for span_name in ("routing.lemma3", "routing.lemma4", "routing.verify",
                      "routing.chain_usage", "cdag.metavertices", "flow.matching"):
        assert result["selftime"][span_name][0] >= 2
    assert result["layers"]["routing.paths"] == 2 * 512
    total = sum(self_s for _, self_s in result["selftime"].values())
    assert total == pytest.approx(result["wall_s"], rel=0.05)


def test_missing_wrap_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        layers, "WRAP_TARGETS", [("repro.routing.theorem2", "no_such_function", "routing.lemma3")]
    )
    missing = layers.install_wraps(layers.Context(traced=True))
    assert missing == ["routing.lemma3"]
    assert {"routing.lemma3_s", "routing.certificate_s"} <= set(layers.missing_metrics(missing))


def test_scrubbed_environment_keeps_knobs_from_the_child(monkeypatch):
    monkeypatch.setenv("REPRO_RUN_MANY_WORKERS", "2")
    monkeypatch.setenv("REPRO_NO_JIT", "1")
    env = run.child_env()
    probe = "import os; print(os.environ.get('REPRO_RUN_MANY_WORKERS'), os.environ.get('REPRO_NO_JIT'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["None", "None"]
    assert env["OMP_NUM_THREADS"] == "1"


def _doc(mode="off", wall=(1.0, 1.0, 1.0), fail_ratio=0.0):
    median, q1, q3 = wall
    metric = {"median": median, "q1": q1, "q3": q3}
    steady = {"median": 1.0, "q1": 1.0, "q3": 1.0}
    metrics = {m.name: steady for m in spec.END_TO_END}
    metrics["wall_s"] = metric
    return {"fingerprint": {"simcore_mode": mode},
            "workloads": {"io_sweep": {"fail_ratio": fail_ratio, "metrics": metrics}}}


@pytest.mark.parametrize(
    "b, code, verdict",
    [
        (_doc(), 0, "ok"),
        (_doc(wall=(1.5, 1.5, 1.5)), 1, "regression"),
        (_doc(wall=(1.5, 1.0, 2.0)), 0, "unresolved"),
        (_doc(fail_ratio=0.1), 1, "regression"),
        (_doc(mode="jit"), 2, "refusing"),
    ],
)
def test_compare_verdicts(tmp_path, capsys, b, code, verdict):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(_doc()))
    path_b.write_text(json.dumps(b))
    assert run.main(["--compare", str(path_a), str(path_b)]) == code
    assert verdict in capsys.readouterr().out
