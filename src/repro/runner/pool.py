"""Sweep scheduler: one process per job, with timeouts and retries.

:func:`run_sweep` drives a set of :class:`JobSpec` and returns one
:class:`JobOutcome` per spec.  Every attempt of a job runs in its own
``multiprocessing.Process`` (default start method), at most ``workers``
of them alive at once.  The child sends back its result, or the text of
the exception it raised, over a one-way ``Pipe``; the scheduler waits on
the read ends.  Fault model:

- **cache hits** — specs whose artifact is already in the store are
  answered without starting a process (skipped with ``fresh=True``);
  orphaned ``.tmp-*`` files from a killed writer are garbage-collected
  before the cache pass;
- **exceptions** raised by a job are recorded as ``error`` attempts and
  the job is resubmitted at once, up to ``retries`` times; the final
  failure keeps the full attempt history;
- **crashes** (segfault, ``os._exit``, OOM kill) — the dead child's
  pipe reads EOF, so the crash is charged to exactly that job as a
  ``crash`` attempt; jobs running beside it carry on;
- **per-job timeouts** — a job running past ``timeout`` seconds has its
  process killed and is charged a ``timeout`` attempt; no other job is
  touched.

No job process outlives :func:`run_sweep`: whatever ends the scheduling
loop, including an exception, every child still alive is killed and
joined.  A sweep process killed outright gets no such chance, so each
job process also watches its parent and exits within a fraction of a
second of being orphaned: nothing could receive what it computes.

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
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Sequence

from repro import telemetry
from repro.experiments.harness import ExperimentResult
from repro.runner.events import EventLog, ProgressLine
from repro.runner.jobs import JobSpec, accepts_seed, resolve_entrypoint
from repro.runner.store import ResultStore, result_to_payload

__all__ = ["Attempt", "JobOutcome", "run_sweep"]


@dataclass
class Attempt:
    """One execution attempt of a job."""

    index: int
    kind: str  # "ok" | "error" | "crash" | "timeout"
    error: str | None = None
    duration: float | None = None
    worker: int | None = None

    @property
    def charged(self) -> bool:
        """Whether the attempt counts against the retry budget: every
        failed attempt does, since each is attributable to its job."""
        return self.kind != "ok"

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "error": self.error,
            "duration": self.duration,
            "worker": self.worker,
        }


@dataclass
class JobOutcome:
    """Terminal state of one sweep job."""

    spec: JobSpec
    key: str
    status: str  # "ok" | "cached" | "failed"
    attempts: list[Attempt] = field(default_factory=list)
    payload: dict | None = None
    error: str | None = None
    duration: float | None = None
    worker: int | None = None
    #: job-side telemetry snapshot (``profile=True`` runs only):
    #: ``{"spans": [...], "metrics": {...}, "span_id": ...}``.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    @property
    def retry_history(self) -> list[dict]:
        return [a.as_dict() for a in self.attempts]


class _JobState:
    """Scheduler-internal mutable companion of a spec."""

    __slots__ = ("index", "spec", "key", "attempts")

    def __init__(self, index: int, spec: JobSpec):
        self.index = index
        self.spec = spec
        self.key = spec.cache_key
        self.attempts: list[Attempt] = []


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
    if isinstance(result, ExperimentResult):
        payload = result_to_payload(result)
    elif isinstance(result, dict):
        payload = {
            "experiment_id": spec.experiment_id,
            "title": spec.label,
            "tables": [],
            "checks": {},
            "data": result,
        }
    else:
        raise TypeError(
            f"job {spec.label!r} returned {type(result).__name__}; expected "
            f"ExperimentResult or dict"
        )
    res = {
        "payload": payload,
        "worker": os.getpid(),
        "duration": time.perf_counter() - t0,
    }
    if job_span is not None:
        # Telemetry rides next to the payload, never inside it: stored
        # artifacts stay byte-deterministic, timings stay in the log.
        res["telemetry"] = {
            "spans": telemetry.drain_spans(),
            "metrics": telemetry.metrics().as_dict(),
            "span_id": job_span.span_id,
        }
    return res


def _exit_when_orphaned(parent: int) -> None:
    """Poll until this process's parent changes, then exit at once."""
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def _job_process_main(conn, spec: JobSpec, parent_span: str | None) -> None:
    """Entry point of a job process: send ``("ok", result)`` or
    ``("error", text)`` and exit.  A process that dies before sending
    leaves EOF on the pipe, which the scheduler reads as a crash.

    The parent watched is the one the job starts under: the sweep
    process under the ``fork`` and ``spawn`` start methods.  Under
    ``forkserver`` it is the fork server, which outlives the sweep, so
    there a killed sweep's jobs still run to their end."""
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
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
    retries: int = 1,
    fresh: bool = False,
    events: EventLog | None = None,
    progress: ProgressLine | bool | None = None,
    profile: bool = False,
) -> list[JobOutcome]:
    """Run ``specs``, one process per job attempt; one outcome per
    spec, in input order.

    Parameters
    ----------
    store:
        Result cache.  ``None`` disables caching entirely.
    workers:
        Most job processes alive at once (at least 1).
    timeout:
        Per-job wall-clock limit in seconds; ``None`` disables.
    retries:
        How many failed attempts (error / crash / timeout) each job may
        absorb beyond its first; ``retries=2`` allows 3 attempts.  A
        failed job is resubmitted at once.
    fresh:
        Recompute every job, overwriting cached artifacts.
    events:
        Structured log sink; an in-memory :class:`EventLog` is created
        when omitted (counters still work).
    progress:
        ``None`` auto-enables a live line on a tty; ``False`` disables;
        a :class:`ProgressLine` instance is used as-is.
    profile:
        Collect telemetry: the sweep runs under a ``runner.sweep`` span,
        each job opens a ``runner.job`` span parented to it, and job
        spans/metrics are merged back into this process (see
        :mod:`repro.telemetry`).  Events carry the owning span ids.
    """
    workers = max(1, int(workers))
    retries = max(0, int(retries))
    if events is None:
        events = EventLog()
    states = [_JobState(i, spec) for i, spec in enumerate(specs)]
    outcomes: dict[int, JobOutcome] = {}

    sweep_span = None
    parent_span = None
    was_enabled = telemetry.enabled()
    if profile:
        telemetry.enable()
        sweep_span = telemetry.span(
            "runner.sweep", jobs=len(states), workers=workers
        )
        sweep_span.__enter__()
        parent_span = sweep_span.span_id
        events.bind(span=parent_span)

    t_sweep = time.monotonic()
    if store is not None:
        orphans = store.gc_orphans()
        if orphans:
            events.emit("store_gc", orphans=len(orphans))
    events.emit("sweep_start", jobs=len(states), workers=workers)

    if progress is False:
        progress = ProgressLine(len(states), enabled=False)
    elif progress is None or progress is True:
        progress = ProgressLine(len(states), enabled=True if progress else None)

    # ---- cache pass -------------------------------------------------
    pending: deque[_JobState] = deque()
    for st in states:
        artifact = None if (store is None or fresh) else store.get(st.spec)
        if artifact is not None:
            outcomes[st.index] = JobOutcome(
                st.spec, st.key, "cached", payload=artifact["result"]
            )
            events.emit(
                "cache_hit",
                job=st.spec.label,
                experiment=st.spec.experiment_id,
                key=st.key,
            )
        else:
            pending.append(st)

    #: read end of each live job's pipe -> (state, process, start time)
    running: dict = {}

    def _progress():
        done = len(outcomes)
        cached = sum(1 for o in outcomes.values() if o.cached)
        failed = sum(1 for o in outcomes.values() if not o.ok)
        progress.update(done, cached, failed, len(running))

    def _start(st: _JobState):
        reader, writer = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_job_process_main,
            args=(writer, st.spec, parent_span),
        )
        proc.start()
        # Drop this process's copy of the write end: the child's copy is
        # then the only one, so its death reads as EOF on ``reader``.
        writer.close()
        running[reader] = (st, proc, time.monotonic())
        events.emit(
            "job_start",
            job=st.spec.label,
            experiment=st.spec.experiment_id,
            key=st.key,
            attempt=len(st.attempts) + 1,
        )

    def _finish_ok(st: _JobState, res: dict):
        st.attempts.append(
            Attempt(
                len(st.attempts) + 1, "ok",
                duration=res["duration"], worker=res["worker"],
            )
        )
        payload = res["payload"]
        if store is not None:
            store.put(st.spec, payload)
        tele = res.get("telemetry")
        if tele is not None:
            # Merge the job's snapshot into this process so exporters
            # see the whole sweep; the artifact store never sees it.
            telemetry.ingest_spans(tele.get("spans", ()))
            telemetry.metrics().ingest(tele.get("metrics", {}))
        outcomes[st.index] = JobOutcome(
            st.spec, st.key, "ok",
            attempts=st.attempts, payload=payload,
            duration=res["duration"], worker=res["worker"],
            telemetry=tele,
        )
        extra = {}
        if tele is not None and tele.get("span_id") is not None:
            extra["job_span"] = tele["span_id"]
        events.emit(
            "job_finish",
            job=st.spec.label,
            experiment=st.spec.experiment_id,
            key=st.key,
            attempt=len(st.attempts),
            duration=round(res["duration"], 6),
            worker=res["worker"],
            **extra,
        )

    def _charge(st: _JobState, kind: str, reason: str, worker: int):
        """Record a failed attempt; resubmit the job or fail it."""
        st.attempts.append(
            Attempt(len(st.attempts) + 1, kind, error=reason, worker=worker)
        )
        if len(st.attempts) > retries:
            outcomes[st.index] = JobOutcome(
                st.spec, st.key, "failed", attempts=st.attempts, error=reason
            )
            events.emit(
                "job_failed",
                job=st.spec.label,
                experiment=st.spec.experiment_id,
                key=st.key,
                attempts=len(st.attempts),
                reason=reason,
                retry_history=[a.as_dict() for a in st.attempts],
            )
            return
        pending.append(st)
        events.emit(
            "job_retry",
            job=st.spec.label,
            experiment=st.spec.experiment_id,
            key=st.key,
            attempt=len(st.attempts),
            kind=kind,
            reason=reason,
        )

    def _collect(reader):
        """Read the message of a job whose pipe became ready."""
        st, proc, _ = running.pop(reader)
        try:
            kind, value = reader.recv()
        except EOFError:
            kind, value = "crash", None
        reader.close()
        proc.join()
        if kind == "ok":
            _finish_ok(st, value)
        elif kind == "error":
            _charge(st, "error", value, proc.pid)
        else:
            _charge(
                st, "crash", f"job process died (exit code {proc.exitcode})",
                proc.pid,
            )

    _progress()
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
                for reader, (st, proc, start) in list(running.items()):
                    if now - start <= timeout:
                        continue
                    del running[reader]
                    proc.kill()
                    proc.join()
                    reader.close()
                    _charge(
                        st, "timeout",
                        f"exceeded per-job timeout of {timeout:g}s", proc.pid,
                    )
            _progress()
    finally:
        for reader, (_, proc, _) in running.items():
            proc.kill()
            proc.join()
            reader.close()
        running.clear()
        progress.finish()

    ordered = [outcomes[i] for i in range(len(states))]
    n_ok = sum(1 for o in ordered if o.status == "ok")
    n_cached = sum(1 for o in ordered if o.cached)
    n_failed = sum(1 for o in ordered if not o.ok)
    events.emit(
        "sweep_finish",
        ok=n_ok,
        failed=n_failed,
        cached=n_cached,
        duration=round(time.monotonic() - t_sweep, 6),
    )
    if sweep_span is not None:
        sweep_span.add("ok", n_ok)
        sweep_span.add("cached", n_cached)
        sweep_span.add("failed", n_failed)
        sweep_span.__exit__(None, None, None)
        events.bind(span=None)
        if not was_enabled:
            telemetry.disable()
    return ordered
