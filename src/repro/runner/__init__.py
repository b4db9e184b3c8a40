"""Parallel experiment runner: job specs, result cache, job processes.

The experiment suite (E1–E15) regenerates every quantitative statement
of the paper.  This subsystem turns a sweep into a set of *hashable job
descriptions* that are

- **expanded** from an experiment id plus a parameter grid
  (:mod:`repro.runner.jobs`),
- **cached** in a content-addressed on-disk store keyed by experiment
  id, canonical parameters, explicit seed and package version, so
  identical jobs are served from disk and interrupted sweeps resume
  (:mod:`repro.runner.store`),
- **executed** one process per job, at most ``workers`` at once, with
  per-job timeouts and bounded retries; a job that crashes or runs
  overdue fails alone, with its attempt history, while the rest of the
  sweep completes (:mod:`repro.runner.pool`),
- **logged** to a structured JSONL event stream plus a live progress
  line (:mod:`repro.runner.events`), and
- **aggregated** back into the harness's :class:`ExperimentResult`
  tables (:mod:`repro.runner.report`).

Quick start::

    from repro.runner import JobSpec, ResultStore, run_sweep, render_sweep

    specs = [JobSpec("E1"), JobSpec("E9", {"r_max": 4})]
    store = ResultStore(".repro-cache")
    outcomes = run_sweep(specs, store, workers=4, retries=2)
    print(render_sweep(outcomes))

or from the command line: ``python -m repro sweep --jobs 4``.
"""

from repro.runner.events import (
    EventLog,
    ProgressLine,
    read_events,
    validate_event,
)
from repro.runner.jobs import (
    JobSpec,
    expand_grid,
    experiment_accepts_seed,
    job_key,
)
from repro.runner.pool import Attempt, JobOutcome, run_sweep
from repro.runner.report import (
    fault_summary,
    render_sweep,
    sweep_ok,
    sweep_summary,
)
from repro.runner.store import (
    ResultStore,
    payload_checksum,
    payload_to_result,
    result_to_payload,
)

__all__ = [
    "JobSpec",
    "job_key",
    "expand_grid",
    "experiment_accepts_seed",
    "ResultStore",
    "result_to_payload",
    "payload_to_result",
    "payload_checksum",
    "EventLog",
    "ProgressLine",
    "read_events",
    "validate_event",
    "Attempt",
    "JobOutcome",
    "run_sweep",
    "sweep_summary",
    "sweep_ok",
    "fault_summary",
    "render_sweep",
]
