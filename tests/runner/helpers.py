"""Job bodies for runner tests.

These must live in an importable module (not a test function) so job
processes can resolve them: specs reference them by entrypoint string,
and the scheduler passes only the job description.

Stateful behaviours (fail-N-times-then-succeed) coordinate through
marker files in a directory passed as a job parameter, because each
attempt runs in its own process.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments.harness import ExperimentResult


def _result(experiment_id: str, **data) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"helper {experiment_id}",
        checks={"always": True},
        data=data,
    )


def ok_job(x: int = 1) -> ExperimentResult:
    return _result("T-OK", x=x, squared=x * x)


def failing_check_job() -> ExperimentResult:
    result = _result("T-BADCHECK")
    result.checks["paper claim holds"] = False
    return result


def error_job(message: str = "boom") -> ExperimentResult:
    raise RuntimeError(message)


def flaky_job(marker_dir: str, fail_times: int = 1) -> ExperimentResult:
    """Raise on the first ``fail_times`` attempts, then succeed."""
    root = Path(marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    attempt = len(list(root.glob("attempt-*"))) + 1
    (root / f"attempt-{attempt}-{os.getpid()}").touch()
    if attempt <= fail_times:
        raise RuntimeError(f"flaky attempt {attempt}/{fail_times}")
    return _result("T-FLAKY", attempts_needed=attempt)


def crash_job(exit_code: int = 17) -> ExperimentResult:
    """Kill the worker process outright (no Python exception)."""
    os._exit(exit_code)


def flaky_crash_job(marker_dir: str, crash_times: int = 1) -> ExperimentResult:
    """Crash the worker on the first ``crash_times`` attempts."""
    root = Path(marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    attempt = len(list(root.glob("attempt-*"))) + 1
    (root / f"attempt-{attempt}-{os.getpid()}").touch()
    if attempt <= crash_times:
        os._exit(23)
    return _result("T-FLAKYCRASH", attempts_needed=attempt)


def sleepy_job(duration: float = 30.0) -> ExperimentResult:
    time.sleep(duration)
    return _result("T-SLEEPY", slept=duration)


def pid_sleepy_job(pid_file: str, duration: float = 30.0) -> ExperimentResult:
    """Publish this job process's pid in ``pid_file``, then sleep."""
    tmp = Path(f"{pid_file}.tmp")
    tmp.write_text(str(os.getpid()))
    tmp.replace(pid_file)
    time.sleep(duration)
    return _result("T-PIDSLEEPY", slept=duration)


def seeded_job(seed: int | None = None) -> ExperimentResult:
    return _result("T-SEEDED", seed=seed)


def seedless_job() -> ExperimentResult:
    return _result("T-SEEDLESS")


def dict_job(value: int = 7) -> dict:
    return {"value": value}


def graph_job(r: int = 2, M: int = 32) -> ExperimentResult:
    """Build a CDAG, compile a schedule and simulate once — touches
    every graph-cache bundle kind (graph, schedule, plan) so sweep
    tests can observe worker-side hits and misses."""
    from repro.bilinear import strassen
    from repro.cdag import build_cdag
    from repro.pebbling import CacheExecutor
    from repro.schedules import recursive_schedule

    g = build_cdag(strassen(), r)
    res = CacheExecutor(g).run(recursive_schedule(g), M, "lru")
    return _result("T-GRAPH", r=r, M=M, total=int(res.total))


def store_hammer(root: str, tag: int, rounds: int = 30) -> None:
    """Hammer one :class:`ResultStore` from this process: republish a
    shared set of keys with churning payloads, read them back, and run
    ``gc_orphans`` in between.  Run from several processes at once, the
    advisory publication lock is what keeps every read a verified
    artifact and every in-flight temp file out of the collector's
    hands; any torn read or lost write raises and fails the process.
    """
    from repro.runner.jobs import JobSpec
    from repro.runner.store import ResultStore

    store = ResultStore(root)
    specs = [JobSpec("T-LOCK", {"slot": slot}) for slot in range(3)]
    for r in range(rounds):
        for spec in specs:
            store.put(spec, {"experiment_id": "T-LOCK",
                             "data": {"tag": tag, "round": r}})
            artifact = store.get(spec)
            assert artifact is not None, f"lost write for {spec.label}"
            assert artifact["result"]["experiment_id"] == "T-LOCK"
        if r % 5 == 0:
            store.gc_orphans()
