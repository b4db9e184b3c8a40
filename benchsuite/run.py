"""The repository's benchmark: four workloads, end-to-end and per-layer
metrics, checked outputs.

    python3 benchsuite/run.py --workload io_sweep --seed 0 --seconds 20 --trace 0
    python3 benchsuite/run.py --seed 0 --json-out a.json        # every workload
    python3 benchsuite/run.py --seed 0 --trace 1 --trace-out trace.json
    python3 benchsuite/run.py --compare a.json b.json

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Closed loop, one client: each repeat is a fresh
single-threaded child process (``child.py``), one at a time, and
repeats are interleaved round-robin across the selected workloads so
host drift hits them alike.  A workload repeats until its share of
``--seconds`` is spent (at least ``MIN_REPEATS`` times).

Each end-to-end metric is the median over a workload's untraced
repeats.  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics instead (medians over traced repeats).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any op failed or
a repeat crashed, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
EXPECTED = SUITE / "expected.json"

MIN_REPEATS = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150.0
#: Environment the program reads that must not leak into a measurement.
SCRUBBED_PREFIXES = ("REPRO_", "NUMBA_")
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "REPRO_GRID_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    """A repeat's process died, hung or spoke out of protocol."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_PREFIXES)}
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, smoke: bool, trace: bool = False,
              setup_only: bool = False) -> dict:
    """Run one repeat; returns the child's result plus ``setup_s`` and
    ``dur_s`` (the child's whole lifetime as seen from here)."""
    cmd = [sys.executable, str(SUITE / "child.py"), workload, "--seed", str(seed)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        body = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    dur_s = time.perf_counter() - t0
    try:
        head = json.loads(ready)
        result = {} if setup_only else json.loads(body)
    except json.JSONDecodeError:
        raise ChildFailed(f"{workload}: child exited {code} without a result") from None
    if code != 0:
        raise ChildFailed(f"{workload}: child exited {code}")
    result.update(setup_s=setup_s, dur_s=dur_s, fingerprint=head["fingerprint"])
    return result


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check_outputs(expected: dict, result: dict, seeded_seen: dict) -> list[str]:
    """Failures of one repeat against the oracle (one string per failed
    op).  ``seeded_seen`` carries the seeded ops' outputs across repeats,
    which must agree."""
    outputs, errors = result["outputs"], result["errors"]
    failures = []
    for key in [*expected["ops"], *expected["seeded"]]:
        got = outputs.get(key)
        if key in errors:
            failures.append(f"{key}: {errors[key]}")
        elif got is None:
            failures.append(f"{key}: not produced")
        else:
            fixed = key in expected["ops"]
            want = expected["ops"][key] if fixed else seeded_seen.setdefault(key, got)
            if got != want:
                source = "expected" if fixed else "an earlier repeat got"
                failures.append(f"{key}: got {got}, {source} {want}")
    known = set(expected["ops"]) | set(expected["seeded"])
    failures += [f"{key}: not in the oracle" for key in outputs if key not in known]
    return failures


def summary(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class Tally:
    """Everything measured for one workload in one run."""

    def __init__(self, name: str, expected: dict):
        self.name = name
        self.expected = expected
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.spent = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.seeded_seen: dict = {}
        self.crash: str | None = None
        self.fingerprint: dict | None = None

    def record(self, result: dict) -> None:
        self.spent += result["dur_s"]
        self.setups.append(result["setup_s"])
        self.fingerprint = self.fingerprint or result["fingerprint"]
        self.attempted += len(self.expected["ops"]) + len(self.expected["seeded"])
        self.failures += check_outputs(self.expected, result, self.seeded_seen)
        if result["crashed"]:
            self.failures.append(f"repeat crashed: {result['crashed']}")
        (self.traced if "layers" in result else self.untraced).append(result)

    def next_is_traced(self, trace: bool) -> bool:
        return trace and len(self.traced) < len(self.untraced)

    def done(self, seconds: float, trace: bool) -> bool:
        if self.crash:
            return True
        runs = [self.untraced] + ([self.traced] if trace else [])
        if any(len(r) < MIN_REPEATS for r in runs):
            return False
        per_repeat = self.spent / (len(self.untraced) + len(self.traced))
        return self.spent + per_repeat > seconds

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def missing(self) -> list[str]:
        """Per-layer metrics whose wrap target no longer exists."""
        return sorted({m for r in self.traced for m in r["missing"]})

    def end_to_end(self) -> dict:
        out = {}
        for m in spec.END_TO_END:
            values = self.setups if m.name == "setup_s" else [r[m.name] for r in self.untraced]
            out[m.name] = {**summary(values), "unit": m.unit}
        return out

    def per_layer(self) -> dict:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        out = {}
        for name in units:
            if name == "telemetry.overhead_s":
                traced = statistics.median(r["wall_s"] for r in self.traced)
                untraced = statistics.median(r["wall_s"] for r in self.untraced)
                values = [traced - untraced]
            else:
                values = [r["layers"][name] for r in self.traced]
            out[name] = {**summary(values), "unit": units[name]}
        return out

    def selftime(self) -> dict[str, list]:
        """Median calls and self-time per span name over traced repeats."""
        names = sorted({n for r in self.traced for n in r["selftime"]})
        return {
            n: [statistics.median(r["selftime"].get(n, [0, 0.0])[i] for r in self.traced)
                for i in (0, 1)]
            for n in names
        }


def measure(names, seed: int, seconds: float, trace: bool, smoke: bool,
            expected: dict) -> dict[str, Tally]:
    tallies = {n: Tally(n, expected[n]) for n in names}
    pending = list(tallies.values())
    while pending:
        for tally in list(pending):
            try:
                tally.record(run_child(tally.name, seed, smoke, tally.next_is_traced(trace)))
            except ChildFailed as exc:
                tally.crash = str(exc)
            if tally.done(seconds, trace):
                pending.remove(tally)
    for tally in tallies.values():
        while not tally.crash and len(tally.setups) < MIN_SETUPS:
            try:
                tally.setups.append(run_child(tally.name, seed, smoke, setup_only=True)["setup_s"])
            except ChildFailed as exc:
                tally.crash = str(exc)
    return tallies


#: Per-layer metric -> "layer: the end-to-end metric and workload it moves".
MOVES = {m.name: f"{m.layer}: {m.moves}" for m in spec.PER_LAYER}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(tallies, trace: bool) -> None:
    for t in tallies.values():
        if t.crash:
            print(f"{t.name}  CRASHED  {t.crash}")
            continue
        print(f"{t.name}  repeats={len(t.untraced)} traced={len(t.traced)}  "
              f"attempted={t.attempted} failed={t.failed}  "
              f"fail_ratio={t.failed / t.attempted:.6g} failed/attempted")
        for failure in t.failures[:20]:
            print(f"  FAIL {failure}")
        rows = t.per_layer() if trace else t.end_to_end()
        for name, m in rows.items():
            where = f"  [{MOVES[name]}]" if name in MOVES else ""
            print(f"{t.name}  {name}  {_fmt(m['median'])} {m['unit']}  "
                  f"(n={m['n']} q1={_fmt(m['q1'])} q3={_fmt(m['q3'])}){where}")
        if trace:
            if t.missing:
                print(f"{t.name}  missing (wrap target gone): {', '.join(t.missing)}")
            table = t.selftime()
            wall = statistics.median(r["wall_s"] for r in t.traced)
            total = sum(row[1] for row in table.values())
            print(f"{t.name}  self-time by span (traced wall {wall:.4f} s, "
                  f"self-times sum to {100 * total / wall:.1f}% of it):")
            for name, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
                print(f"    {name:<34} {calls:>7g} calls {self_s:>10.4f} s "
                      f"{100 * self_s / wall:6.1f}%")


def result_doc(tallies, seed, seconds, trace, smoke) -> dict:
    fingerprint = next((t.fingerprint for t in tallies.values() if t.fingerprint), None)
    doc = {"schema": 1, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
           "fingerprint": fingerprint, "workloads": {}}
    for t in tallies.values():
        w = {"repeats": len(t.untraced), "traced_repeats": len(t.traced),
             "attempted": t.attempted, "failed": t.failed,
             "fail_ratio": t.failed / t.attempted if t.attempted else 1.0,
             "failures": t.failures[:50], "crash": t.crash}
        if not t.crash:
            w["metrics"] = t.end_to_end()
            if trace:
                w["layers"] = t.per_layer()
                w["selftime"] = t.selftime()
                w["missing"] = t.missing
        doc["workloads"][t.name] = w
    return doc


def write_trace(path: Path, tallies, fingerprint) -> None:
    events = [e for t in tallies.values() if t.traced for e in t.traced[0]["trace_events"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                "otherData": fingerprint or {}}) + "\n")


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, metric): both medians and quartile spreads,
    the bound and a verdict.  Exit 1 on any regression."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    mode_a = (a.get("fingerprint") or {}).get("simcore_mode")
    mode_b = (b.get("fingerprint") or {}).get("simcore_mode")
    if mode_a != mode_b:
        print(f"refusing to compare: simulation paths differ ({mode_a} vs {mode_b})")
        return 2
    regressions = 0
    print(f"{'workload':<14} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for wname, wa in a["workloads"].items():
        wb = b["workloads"].get(wname)
        if wb is None or "metrics" not in wa or "metrics" not in wb:
            print(f"{wname:<14} (not in both runs)")
            continue
        fr_a, fr_b = wa["fail_ratio"], wb["fail_ratio"]
        verdict = "regression" if fr_b > fr_a else "ok"
        regressions += verdict == "regression"
        print(f"{wname:<14} {'fail_ratio':<12} {fr_a:>12.6g} {fr_b:>12.6g} "
              f"{'':>9} {'':>9} {0:>6}  {verdict}")
        for m in spec.END_TO_END:
            ma, mb = wa["metrics"][m.name], wb["metrics"][m.name]
            spread_a = (ma["q3"] - ma["q1"]) / ma["median"]
            spread_b = (mb["q3"] - mb["q1"]) / mb["median"]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if m.better == "lower" else -change
            if max(spread_a, spread_b) > m.bound:
                verdict = "unresolved"
            elif worse > m.bound:
                verdict = "regression"
            else:
                verdict = "ok"
            regressions += verdict == "regression"
            print(f"{wname:<14} {m.name:<12} {ma['median']:>12.6g} {mb['median']:>12.6g} "
                  f"{spread_a:>9.2%} {spread_b:>9.2%} {m.bound:>6.0%}  {verdict}")
    return 1 if regressions else 0


def record_expected() -> int:
    """Write expected.json from one repeat of every workload, full and
    smoke size (run once, at the commit whose outputs are the oracle)."""
    doc = {}
    for smoke in (False, True):
        size = "smoke" if smoke else "full"
        doc[size] = {}
        for name in spec.WORKLOADS:
            result = run_child(name, 0, smoke)
            if result["errors"] or result["crashed"]:
                print(f"{name} ({size}) failed: {result['errors'] or result['crashed']}")
                return 1
            seeded = sorted(result["seeded"])
            doc[size][name] = {
                "ops": {k: v for k, v in sorted(result["outputs"].items()) if k not in seeded},
                "seeded": seeded,
            }
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="Chrome trace file (implies --trace 1)")
    parser.add_argument("--json-out", type=Path, help="full results, for --compare")
    parser.add_argument("--smoke", action="store_true", help="the self-test's small sizes")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected()

    trace = bool(args.trace or args.trace_out)
    names = args.workload or list(spec.WORKLOADS)
    expected = load_expected()["smoke" if args.smoke else "full"]
    tallies = measure(names, args.seed, args.seconds, trace, args.smoke, expected)
    print_report(tallies, trace)
    doc = result_doc(tallies, args.seed, args.seconds, trace, args.smoke)
    print(f"fingerprint {json.dumps(doc['fingerprint'], sort_keys=True)}")
    if args.json_out:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.trace_out:
        write_trace(args.trace_out, tallies, doc["fingerprint"])
    if any(t.crash for t in tallies.values()):
        return 1

    key = "layers" if trace else "metrics"
    metrics = {}
    for name, w in doc["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        for mname, m in w[key].items():
            metrics[prefix + mname] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
