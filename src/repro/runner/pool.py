"""Sweep scheduler: one process per job, with per-job timeouts.

:func:`run_sweep` drives a set of :class:`JobSpec` and returns one
:class:`JobOutcome` per spec.  Every job runs once, in its own
``multiprocessing.Process`` (default start method), at most ``workers``
of them alive at once.  The child sends back its result, or the text of
the exception it raised, over a one-way ``Pipe``; the scheduler waits on
the read ends.  Fault model:

- **cache hits** — specs whose artifact is already in the store are
  answered without starting a process (skipped with ``fresh=True``);
  orphaned ``.tmp-*`` files from a killed writer are garbage-collected
  before the cache pass;
- **exceptions** raised by a job fail it, with the exception's text as
  the outcome's ``error``;
- **crashes** (segfault, ``os._exit``, OOM kill) — the dead child's
  pipe reads EOF, so the crash fails exactly that job
  (``job process died (exit code N)``); jobs running beside it carry on;
- **per-job timeouts** — a job running past ``timeout`` seconds has its
  process killed and fails (``exceeded per-job timeout of Ts``); no
  other job is touched.

A failed job is not resubmitted: jobs are seeded and deterministic, so
a second attempt would fail the same way.  Rerunning the sweep is the
retry; the store serves every job that finished.

No job process outlives :func:`run_sweep`: whatever ends the scheduling
loop, including an exception, every child still alive is killed and
joined.  A sweep process killed outright gets no such chance, so each
job process also waits on its parent sentinel and exits as soon as the
sweep is gone, under every start method: nothing could receive what it
computes.

Children execute :func:`_execute_job`, which resolves the experiment
registry (or an explicit entrypoint), threads explicit seeds, and
serialises the result before it crosses the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Sequence

from repro import telemetry
from repro.experiments.harness import ExperimentResult
from repro.runner.jobs import JobSpec, accepts_seed, resolve_entrypoint
from repro.runner.store import ResultStore, result_to_payload

__all__ = ["JobOutcome", "run_sweep"]


@dataclass
class JobOutcome:
    """Terminal state of one sweep job."""

    spec: JobSpec
    key: str
    status: str  # "ok" | "cached" | "failed"
    payload: dict | None = None
    error: str | None = None
    duration: float | None = None
    worker: int | None = None
    #: job-side telemetry snapshot (``profile=True`` runs only): its
    #: spans, its counters and its root span id,
    #: ``{"spans": [...], "metrics": {...}, "span_id": ...}``.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @property
    def cached(self) -> bool:
        return self.status == "cached"


def _execute_job(spec: JobSpec, parent_span: str | None) -> dict:
    """Job body, run inside the job's own process.  ``parent_span`` is
    the sweep's span id when the sweep is profiled, else None."""
    t0 = time.perf_counter()
    job_span = None
    if parent_span is not None:
        # Job-side root span: explicit cross-process parentage so the
        # merged Chrome trace nests this job under the sweep span.
        telemetry.enable()
        telemetry.reset()
        job_span = telemetry.span(
            "runner.job",
            parent=parent_span,
            job=spec.label,
            experiment=spec.experiment_id,
        )
        job_span.__enter__()
    try:
        fn = resolve_entrypoint(spec)
        kwargs = dict(spec.params)
        if spec.seed is not None:
            if not accepts_seed(fn):
                raise TypeError(
                    f"job {spec.label!r} carries an explicit seed but "
                    f"{getattr(fn, '__name__', fn)!r} takes no 'seed' argument"
                )
            kwargs["seed"] = spec.seed
        result = fn(**kwargs)
    finally:
        if job_span is not None:
            job_span.__exit__(None, None, None)
    if not isinstance(result, ExperimentResult):
        raise TypeError(
            f"job {spec.label!r} returned {type(result).__name__}; expected "
            f"ExperimentResult"
        )
    res = {
        "payload": result_to_payload(result),
        "worker": os.getpid(),
        "duration": time.perf_counter() - t0,
    }
    if job_span is not None:
        # Telemetry rides next to the payload, never inside it: stored
        # artifacts stay byte-deterministic.
        res["telemetry"] = {
            "spans": telemetry.drain_spans(),
            "metrics": telemetry.metrics().as_dict(),
            "span_id": job_span.span_id,
        }
    return res


def _exit_when_orphaned() -> None:
    """Wait until the sweep process is gone, then exit at once."""
    multiprocessing.parent_process().join()
    os._exit(1)


def _job_process_main(conn, spec: JobSpec, parent_span: str | None) -> None:
    """Entry point of a job process: send ``("ok", result)`` or
    ``("error", text)`` and exit.  A process that dies before sending
    leaves EOF on the pipe, which the scheduler reads as a crash.

    The parent sentinel is a pipe whose write end the sweep holds under
    the ``fork``, ``spawn`` and ``forkserver`` start methods alike, so
    it reads EOF once the sweep is gone, even where the job's parent
    process is a fork server that outlives it.  Under ``fork`` a later
    job inherits an earlier job's write end, so the jobs of a killed
    sweep exit youngest first."""
    threading.Thread(target=_exit_when_orphaned, daemon=True).start()
    try:
        conn.send(("ok", _execute_job(spec, parent_span)))
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


def run_sweep(
    specs: Sequence[JobSpec],
    store: ResultStore | None = None,
    *,
    workers: int = 2,
    timeout: float | None = None,
    fresh: bool = False,
    profile: bool = False,
) -> list[JobOutcome]:
    """Run ``specs``, one process per job; one outcome per spec, in
    input order.

    Parameters
    ----------
    store:
        Result cache.  ``None`` disables caching entirely.
    workers:
        Most job processes alive at once (at least 1).
    timeout:
        Per-job wall-clock limit in seconds; ``None`` disables.
    fresh:
        Recompute every job, overwriting cached artifacts.
    profile:
        Collect telemetry: the sweep runs under a ``runner.sweep`` span,
        each job opens a ``runner.job`` span parented to it, and job
        spans and counters are merged back into this process (see
        :mod:`repro.telemetry`).
    """
    workers = max(1, int(workers))
    outcomes: list[JobOutcome | None] = [None] * len(specs)

    sweep_span = None
    parent_span = None
    was_enabled = telemetry.enabled()
    if profile:
        telemetry.enable()
        sweep_span = telemetry.span(
            "runner.sweep", jobs=len(specs), workers=workers
        )
        sweep_span.__enter__()
        parent_span = sweep_span.span_id

    if store is not None:
        store.gc_orphans()

    # ---- cache pass -------------------------------------------------
    pending: deque[int] = deque()
    for i, spec in enumerate(specs):
        artifact = None if (store is None or fresh) else store.get(spec)
        if artifact is not None:
            outcomes[i] = JobOutcome(
                spec, spec.cache_key, "cached", payload=artifact["result"]
            )
        else:
            pending.append(i)

    #: read end of each live job's pipe -> (spec index, process, start time)
    running: dict = {}

    def _start(i: int):
        reader, writer = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_job_process_main,
            args=(writer, specs[i], parent_span),
        )
        proc.start()
        # Drop this process's copy of the write end: the child's copy is
        # then the only one, so its death reads as EOF on ``reader``.
        writer.close()
        running[reader] = (i, proc, time.monotonic())

    def _finish(i: int, res: dict):
        spec = specs[i]
        payload = res["payload"]
        if store is not None:
            store.put(spec, payload)
        tele = res.get("telemetry")
        if tele is not None:
            # Merge the job's snapshot into this process so exporters
            # see the whole sweep; the artifact store never sees it.
            telemetry.ingest_spans(tele.get("spans", ()))
            telemetry.metrics().ingest(tele.get("metrics", {}))
        outcomes[i] = JobOutcome(
            spec, spec.cache_key, "ok", payload=payload,
            duration=res["duration"], worker=res["worker"], telemetry=tele,
        )

    def _fail(i: int, reason: str):
        outcomes[i] = JobOutcome(
            specs[i], specs[i].cache_key, "failed", error=reason
        )

    def _collect(reader):
        """Read the message of a job whose pipe became ready."""
        i, proc, _ = running.pop(reader)
        try:
            kind, value = reader.recv()
        except EOFError:
            kind, value = "crash", None
        reader.close()
        proc.join()
        if kind == "ok":
            _finish(i, value)
        elif kind == "error":
            _fail(i, value)
        else:
            _fail(i, f"job process died (exit code {proc.exitcode})")

    try:
        while pending or running:
            while pending and len(running) < workers:
                _start(pending.popleft())
            wait_for = None
            if timeout is not None:
                first_start = min(start for _, _, start in running.values())
                wait_for = max(0.0, first_start + timeout - time.monotonic())
            for reader in wait(list(running), timeout=wait_for):
                _collect(reader)
            if timeout is not None:
                now = time.monotonic()
                for reader, (i, proc, start) in list(running.items()):
                    if now - start <= timeout:
                        continue
                    del running[reader]
                    proc.kill()
                    proc.join()
                    reader.close()
                    _fail(i, f"exceeded per-job timeout of {timeout:g}s")
    finally:
        for reader, (_, proc, _) in running.items():
            proc.kill()
            proc.join()
            reader.close()
        running.clear()

    if sweep_span is not None:
        sweep_span.add("ok", sum(1 for o in outcomes if o.status == "ok"))
        sweep_span.add("cached", sum(1 for o in outcomes if o.cached))
        sweep_span.add("failed", sum(1 for o in outcomes if not o.ok))
        sweep_span.__exit__(None, None, None)
        if not was_enabled:
            telemetry.disable()
    return outcomes
