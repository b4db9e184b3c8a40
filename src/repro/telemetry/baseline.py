"""Perf-baseline store: ``BENCH_<exp>.json`` snapshots and regression
comparison.

A *baseline* records, per experiment, the median-of-k wall time and the
experiment's key telemetry counters.  ``python -m repro perf`` writes
baselines (committed at the repo root, giving the project a perf
trajectory); ``python -m repro perf --compare`` re-measures and diffs
against the committed snapshot, exiting nonzero when the median time
regresses past a configurable threshold or any counter differs from the
snapshot's.  Counters describe one deterministic execution, so drift
means the work changed: a change that alters it on purpose comes with a
refreshed baseline.

Timings are machine-dependent; committed baselines are a *trajectory*
anchor, so CI compares with a generous threshold while local runs can
use a tight one against baselines recorded on the same machine.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro.telemetry import metrics as _metrics_mod
from repro.telemetry import spans as _spans_mod
from repro.utils.tables import TextTable

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_PERF_IDS",
    "DEFAULT_PERF_PARAMS",
    "bench_filename",
    "bench_path",
    "measure_experiment",
    "write_baseline",
    "load_baseline",
    "compare_docs",
    "run_perf",
]

BENCH_SCHEMA = 1

#: The cheap structural experiments every perf run covers by default,
#: plus the routing-certificate check (E4), the executor-bound I/O
#: sweep (E9) at reduced parameters, and the flow-bound Hong-Kung
#: dominator cuts (E14).
DEFAULT_PERF_IDS = ("E1", "E2", "E3", "E4", "E9", "E14")

#: Reduced parameters used when measuring an experiment that would be
#: too slow at its defaults.  ``run_perf`` falls back to these when the
#: caller does not supply params for an id, so recorded baselines and
#: CI comparisons agree on the workload.
DEFAULT_PERF_PARAMS: dict[str, dict] = {
    "E4": {"k_max": 2},
    "E9": {"r_max": 4, "cache_sizes": (12, 48), "r_big": None},
}

_EID = re.compile(r"^E(\d+)$")


def bench_filename(experiment_id: str) -> str:
    """``"E1"`` → ``"BENCH_e01.json"`` (non-standard ids sanitise to
    lowercase alphanumerics)."""
    m = _EID.match(experiment_id)
    if m:
        return f"BENCH_e{int(m.group(1)):02d}.json"
    slug = re.sub(r"[^a-z0-9]+", "_", experiment_id.lower()).strip("_")
    return f"BENCH_{slug}.json"


def bench_path(experiment_id: str, root=".") -> Path:
    return Path(root) / bench_filename(experiment_id)


def _time_once(fn, kwargs) -> float:
    """One timed run (separated out so tests can inject slowdowns)."""
    t0 = time.perf_counter()
    fn(**kwargs)
    return time.perf_counter() - t0


def measure_experiment(
    experiment_id: str,
    repeats: int = 3,
    params: Mapping | None = None,
) -> dict:
    """Run an experiment ``repeats`` times under telemetry; return its
    baseline document (median wall time + counters of one run).

    Counters are captured from the final repeat with the metrics
    registry reset per repeat, so they describe *one* execution and are
    reproducible run-to-run for deterministic experiments.  Spans
    accumulate in the process collector (they feed ``--trace-out``);
    the caller owns resetting them.
    """
    from repro._version import __version__
    from repro.experiments import get_experiment

    fn = get_experiment(experiment_id)
    kwargs = dict(params or {})
    was_enabled = _spans_mod.enabled()
    _spans_mod.enable()
    times = []
    try:
        for _ in range(max(1, int(repeats))):
            _metrics_mod.reset_metrics()
            times.append(_time_once(fn, kwargs))
        registry = _metrics_mod.metrics()
        counters = {
            name: registry.get(name).value for name in registry.names()
        }
    finally:
        if not was_enabled:
            _spans_mod.disable()
    return {
        "schema": BENCH_SCHEMA,
        "experiment": experiment_id,
        "params": {str(k): v for k, v in sorted(kwargs.items())},
        "repeats": len(times),
        "times_s": [round(t, 6) for t in times],
        "median_s": round(statistics.median(times), 6),
        "counters": counters,
        "version": __version__,
    }


def write_baseline(doc: Mapping, root=".") -> Path:
    path = bench_path(doc["experiment"], root)
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def load_baseline(experiment_id: str, root=".") -> dict | None:
    """The committed baseline for ``experiment_id``, or None."""
    path = bench_path(experiment_id, root)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        return None
    return doc


def compare_docs(
    baseline: Mapping, current: Mapping, threshold: float
) -> dict:
    """Diff a fresh measurement against a baseline.

    ``ok`` is False for a *time* regression (the current median
    exceeding ``threshold ×`` the baseline median) and for counter
    drift (any counter whose value differs, listed in
    ``counter_drift``); ``verdict`` names which.
    """
    base_median = float(baseline["median_s"])
    cur_median = float(current["median_s"])
    ratio = cur_median / base_median if base_median > 0 else float("inf")
    drift = []
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name in sorted(set(base_counters) | set(cur_counters)):
        b, c = base_counters.get(name), cur_counters.get(name)
        if b != c:
            drift.append({"counter": name, "baseline": b, "current": c})
    regression = ratio > threshold
    failed = []
    if regression:
        failed.append("REGRESSION")
    if drift:
        failed.append("COUNTER DRIFT")
    return {
        "experiment": current.get("experiment", baseline.get("experiment")),
        "baseline_median_s": base_median,
        "current_median_s": cur_median,
        "ratio": ratio,
        "threshold": float(threshold),
        "regression": regression,
        "ok": not failed,
        "verdict": " + ".join(failed) or "OK",
        "counter_drift": drift,
    }


def run_perf(
    ids: Sequence[str] | None = None,
    *,
    repeats: int = 3,
    root=".",
    compare: bool = False,
    threshold: float = 1.5,
    json_out=None,
    params_by_id: Mapping[str, Mapping] | None = None,
    out=print,
) -> int:
    """Measure experiments and either record or compare baselines.

    Without ``--compare`` (``compare=False``): writes one
    ``BENCH_<exp>.json`` per experiment under ``root`` and returns 0.
    With ``compare=True``: loads the committed baselines, diffs, prints
    a verdict table, and returns nonzero when any experiment regresses
    past ``threshold``, drifts from its baseline's counters, or has no
    baseline to compare against.
    """
    ids = list(ids) if ids else list(DEFAULT_PERF_IDS)
    params_by_id = dict(params_by_id or {})
    _spans_mod.reset_spans()

    currents = {}
    for eid in ids:
        params = params_by_id.get(eid, DEFAULT_PERF_PARAMS.get(eid))
        currents[eid] = measure_experiment(eid, repeats=repeats, params=params)

    exit_code = 0
    if compare:
        table = TextTable(
            ["experiment", "baseline (s)", "current (s)", "ratio",
             "threshold", "counters drifted", "verdict"],
            title="perf --compare: current run vs committed baselines",
        )
        for eid in ids:
            current = currents[eid]
            baseline = load_baseline(eid, root)
            if baseline is None:
                table.add_row(
                    [eid, "-", current["median_s"], "-", f"{threshold:g}x",
                     "-", "NO BASELINE"]
                )
                exit_code = 1
                continue
            report = compare_docs(baseline, current, threshold)
            table.add_row(
                [
                    eid,
                    f"{report['baseline_median_s']:.6f}",
                    f"{report['current_median_s']:.6f}",
                    f"{report['ratio']:.2f}x",
                    f"{threshold:g}x",
                    len(report["counter_drift"]),
                    report["verdict"],
                ]
            )
            for d in report["counter_drift"]:
                out(
                    f"  [drift] {eid} {d['counter']}: "
                    f"{d['baseline']} -> {d['current']}"
                )
            if not report["ok"]:
                exit_code = 1
        out(table.render())
    else:
        table = TextTable(
            ["experiment", "median (s)", "repeats", "counters", "file"],
            title="perf: recorded baselines",
        )
        for eid in ids:
            path = write_baseline(currents[eid], root)
            table.add_row(
                [eid, currents[eid]["median_s"], currents[eid]["repeats"],
                 len(currents[eid]["counters"]), str(path)]
            )
        out(table.render())

    if json_out is not None:
        from repro.telemetry.export import telemetry_to_json, write_json

        doc = telemetry_to_json(
            spans=_spans_mod.collected_spans(),
            registry=_metrics_mod.metrics(),
            metadata={"command": "perf", "experiments": ids},
        )
        doc["measurements"] = currents
        path = write_json(json_out, doc)
        out(f"telemetry json: {path}")
    return exit_code
