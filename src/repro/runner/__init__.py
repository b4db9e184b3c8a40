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
- **executed** once each, one process per job, at most ``workers`` at
  once, with per-job timeouts; a job that raises, crashes or runs
  overdue fails alone, with the reason as its outcome's ``error``,
  while the rest of the sweep completes (:mod:`repro.runner.pool`), and
- **aggregated** back into the harness's :class:`ExperimentResult`
  tables (:mod:`repro.runner.report`).

A failed job is not retried in the run: rerunning the sweep is the
retry, and the store serves every job that finished.

Quick start::

    from repro.runner import JobSpec, ResultStore, run_sweep, render_sweep

    specs = [JobSpec("E1"), JobSpec("E9", {"r_max": 4})]
    store = ResultStore(".repro-cache")
    outcomes = run_sweep(specs, store, workers=4)
    print(render_sweep(outcomes))

or from the command line: ``python -m repro sweep --jobs 4``.
"""

from repro.runner.jobs import (
    JobSpec,
    expand_grid,
    experiment_accepts_seed,
    job_key,
)
from repro.runner.pool import JobOutcome, run_sweep
from repro.runner.report import render_sweep, sweep_ok, sweep_summary
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
    "JobOutcome",
    "run_sweep",
    "sweep_summary",
    "sweep_ok",
    "render_sweep",
]
