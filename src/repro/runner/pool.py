"""Process-pool sweep scheduler: timeouts, retries, crash isolation.

:func:`run_sweep` drives a set of :class:`JobSpec` through a
``ProcessPoolExecutor`` and returns one :class:`JobOutcome` per spec.
Fault model:

- **cache hits** — specs whose artifact is already in the store are
  answered without touching the pool (skipped with ``fresh=True``);
  orphaned ``.tmp-*`` files from a killed writer are garbage-collected
  before the cache pass;
- **ordinary exceptions** raised by a job are charged as failed
  attempts and retried with exponentially-growing, fully-jittered
  backoff up to ``retries`` times; the final failure keeps the full
  retry history.  Jitter is drawn from a PRF over the job key, so a
  re-run of the same sweep replays the same delays;
- **per-job timeouts** — a job running past ``timeout`` seconds has
  its worker killed and is charged a ``timeout`` attempt; innocent
  jobs sharing the pool are resubmitted without charge.  With
  ``heartbeat`` set, workers touch a per-job heartbeat file from a
  daemon thread and the watchdog kills only *hung* workers (stale
  heartbeat past the timeout) — a slow-but-alive job keeps running;
- **worker crashes** (segfault, ``os._exit``, OOM-kill) break the
  whole executor, and the stdlib cannot say *which* in-flight job
  crashed.  The scheduler rebuilds the pool and re-runs every suspect
  in **quarantine** (solo, one at a time), where a repeat crash is
  attributable with certainty.  Deterministic crashers therefore
  exhaust their retries and are recorded as failed, while innocent
  bystanders complete — the sweep always runs to the end;
- **sweep deadline** — past ``deadline`` seconds the scheduler stops
  the pool, fails every unfinished job with a ``deadline`` attempt,
  and still emits a complete report: every job reaches a terminal
  state no matter how the sweep was cut short.

Workers execute :func:`_execute_job` — a module-level function so it
pickles by reference — which resolves the experiment registry (or an
explicit entrypoint), threads explicit seeds, and serialises the
result before it crosses the process boundary.  When a chaos monkey is
installed (:mod:`repro.chaos`), the scheduler embeds the fault decision
for each submission in the job doc and the worker applies it; with no
monkey installed every hook point is a single ``None`` check.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro.chaos import hooks as _chaos_hooks
from repro.runner.events import EventLog, ProgressLine
from repro.runner.jobs import JobSpec, accepts_seed, graph_affinity, resolve_entrypoint
from repro.runner.store import ResultStore, result_to_payload
from repro.utils.prf import prf01

__all__ = ["Attempt", "JobOutcome", "run_sweep"]

#: Attempt kinds that are *charged* against the retry budget (the
#: job itself was at fault).  ``pool-lost`` marks collateral damage —
#: the job was in flight when another job killed the pool — and is
#: recorded but never charged; ``deadline`` marks jobs cut off by the
#: sweep-level deadline (terminal, uncharged).
CHARGED_KINDS = frozenset({"error", "crash", "timeout"})

_WAIT_TICK = 0.05  # scheduler poll interval, seconds
_MAX_BACKOFF = 30.0
#: A heartbeat is "stale" after this many missed intervals (with a
#: floor covering filesystem mtime granularity and thread jitter).
_STALE_INTERVALS = 3.0
_STALE_FLOOR = 0.25


def _retry_delay(key: str, charged_failures: int, backoff: float, jitter: bool) -> float:
    """Backoff before re-submitting a failed job: exponential cap with
    *full jitter* (uniform in ``[0, cap)``), drawn deterministically
    from the job key and attempt number so identical sweeps replay
    identical delays."""
    cap = min(backoff * (2 ** (charged_failures - 1)), _MAX_BACKOFF)
    if not jitter:
        return cap
    return cap * prf01("backoff", key, charged_failures)


@dataclass
class Attempt:
    """One execution attempt of a job."""

    index: int
    kind: str  # "ok" | "error" | "crash" | "timeout" | "pool-lost" | "deadline"
    error: str | None = None
    duration: float | None = None
    worker: int | None = None

    @property
    def charged(self) -> bool:
        return self.kind in CHARGED_KINDS

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
    #: worker-side telemetry snapshot (``profile=True`` runs only):
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

    __slots__ = (
        "spec", "key", "attempts", "charged_failures", "ready_at",
        "started_at", "quarantined", "job_doc",
    )

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.key = spec.cache_key
        self.attempts: list[Attempt] = []
        self.charged_failures = 0
        self.ready_at = 0.0
        self.started_at: float | None = None
        self.quarantined = False
        self.job_doc = {
            "experiment_id": spec.experiment_id,
            "params": dict(spec.params),
            "seed": spec.seed,
            "entrypoint": spec.entrypoint,
        }


def _beat(path: str, interval: float, stop: threading.Event) -> None:
    """Worker-side heartbeat: touch ``path`` every ``interval`` seconds
    until the job body finishes (daemon thread; dies with the worker,
    which is exactly the signal the watchdog wants)."""
    target = Path(path)
    while not stop.wait(interval):
        try:
            target.touch()
        except OSError:
            return


def _execute_job(job_doc: dict) -> dict:
    """Worker-side job body (module-level: pickled by reference)."""
    t0 = time.perf_counter()
    spec = JobSpec(
        job_doc["experiment_id"],
        job_doc["params"],
        seed=job_doc.get("seed"),
        entrypoint=job_doc.get("entrypoint"),
    )
    chaos_doc = job_doc.get("chaos")
    hb_stop = None
    hb_path = job_doc.get("heartbeat")
    if hb_path is not None and not (chaos_doc and chaos_doc.get("kind") == "hang"):
        # A chaos "hang" must look like a *true* hang — no heartbeat —
        # so the watchdog, not luck, is what reaps it.
        hb_stop = threading.Event()
        threading.Thread(
            target=_beat,
            args=(hb_path, float(job_doc.get("heartbeat_interval", 1.0)), hb_stop),
            daemon=True,
        ).start()
    graph_cache_root = job_doc.get("graph_cache")
    if graph_cache_root is not None:
        from repro.runner import graphcache as _graphcache

        _graphcache.activate(graph_cache_root)
    profile = bool(job_doc.get("telemetry"))
    job_span = None
    if profile:
        # Worker-side root span: explicit cross-process parentage so the
        # merged Chrome trace nests this job under the sweep span.
        from repro import telemetry

        telemetry.enable()
        telemetry.reset()
        job_span = telemetry.span(
            "runner.job",
            parent=job_doc.get("parent_span"),
            job=spec.label,
            experiment=spec.experiment_id,
        )
        job_span.__enter__()
    # Snapshot the graph-cache counters *after* any profiling reset so
    # the per-job delta reported back to the scheduler is exact.  The
    # metrics registry is always live, so this works without profiling.
    gc_before = None
    if graph_cache_root is not None:
        from repro.runner.graphcache import counter_snapshot

        gc_before = counter_snapshot()
    try:
        if chaos_doc:
            from repro.chaos.faults import apply_worker_fault

            apply_worker_fault(chaos_doc)  # only "slow" returns
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
        if hb_stop is not None:
            hb_stop.set()
    # Local import keeps worker startup lazy on the common path.
    from repro.experiments.harness import ExperimentResult

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
    if gc_before is not None:
        from repro.runner.graphcache import counter_snapshot

        gc_after = counter_snapshot()
        res["graphcache"] = {
            name[len("graphcache."):]: gc_after[name] - gc_before.get(name, 0)
            for name in gc_after
            if gc_after[name] - gc_before.get(name, 0)
        }
    if profile:
        from repro import telemetry

        # Telemetry rides next to the payload, never inside it: stored
        # artifacts stay byte-deterministic, timings stay in the log.
        res["telemetry"] = {
            "spans": telemetry.drain_spans(),
            "metrics": telemetry.metrics().as_dict(),
            "span_id": job_span.span_id,
        }
        telemetry.reset_metrics()
    return res


def run_sweep(
    specs: Sequence[JobSpec],
    store: ResultStore | None = None,
    *,
    workers: int = 2,
    timeout: float | None = None,
    heartbeat: float | None = None,
    deadline: float | None = None,
    retries: int = 1,
    backoff: float = 0.25,
    jitter: bool = True,
    fresh: bool = False,
    events: EventLog | None = None,
    progress: ProgressLine | bool | None = None,
    mp_context=None,
    profile: bool = False,
    graph_cache: str | os.PathLike | None = None,
) -> list[JobOutcome]:
    """Run ``specs`` through a worker pool; one outcome per spec, in
    input order.

    Parameters
    ----------
    store:
        Result cache.  ``None`` disables caching entirely.
    workers:
        Pool size (at least 1).
    timeout:
        Per-job wall-clock limit in seconds; ``None`` disables.
    heartbeat:
        Worker heartbeat interval in seconds; ``None`` disables.  When
        set together with ``timeout``, the watchdog kills an overdue
        job only if its heartbeat file is also stale (a true hang) —
        slow-but-alive jobs keep running until the sweep ``deadline``.
    deadline:
        Sweep-level wall-clock limit.  When exceeded, unfinished jobs
        are failed with a ``deadline`` attempt and the sweep returns a
        complete report (every job terminal).
    retries:
        How many *charged* failures (error / crash / timeout) each job
        may absorb beyond its first; ``retries=2`` allows 3 attempts.
    backoff:
        Base delay before a retried job is resubmitted; the cap doubles
        per charged failure (max 30 s) and the actual delay is drawn
        uniformly from ``[0, cap)`` (full jitter), deterministically
        per job key.  ``jitter=False`` sleeps the full cap.
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
        each worker opens a ``runner.job`` span parented to it, and
        worker spans/metrics are merged back into this process (see
        :mod:`repro.telemetry`).  Events carry the owning span ids.
    graph_cache:
        Directory of the shared compiled-graph bundle store
        (:mod:`repro.runner.graphcache`).  Workers activate it before
        running the job body, so graphs/schedules/plans are built once
        per machine; jobs are grouped by graph affinity and
        preferentially dispatched to workers that already have the
        group's bundles mapped (best effort — the stdlib pool cannot
        target a specific worker, but grouped submission plus the
        workers' process-local bundle maps make the just-freed warm
        worker the likely consumer).  Per-job hit/miss deltas are
        aggregated into this process's ``graphcache.*`` counters and
        the ``sweep_finish`` event.
    """
    workers = max(1, int(workers))
    retries = max(0, int(retries))
    if events is None:
        events = EventLog()
    states = [_JobState(spec) for spec in specs]
    outcomes: dict[int, JobOutcome] = {}

    if graph_cache is not None:
        graph_cache = str(graph_cache)
        for st in states:
            st.job_doc["graph_cache"] = graph_cache
            st.job_doc["affinity"] = graph_affinity(st.spec)
    #: graph-affinity groups each live worker pid has already served
    #: (its process-local bundle maps are warm for those groups).
    worker_groups: dict[int, set[str]] = {}
    gc_totals: dict[str, int] = {}
    warm_dispatch = {"warm": 0, "cold": 0}

    sweep_span = None
    was_enabled = telemetry.enabled()
    if profile:
        telemetry.enable()
        sweep_span = telemetry.span(
            "runner.sweep", jobs=len(states), workers=workers
        )
        sweep_span.__enter__()
        events.bind(span=sweep_span.span_id)
        for st in states:
            st.job_doc["telemetry"] = True
            st.job_doc["parent_span"] = sweep_span.span_id

    hb_dir: Path | None = None
    if heartbeat is not None:
        hb_dir = Path(tempfile.mkdtemp(prefix="repro-hb-"))
    stale_after = (
        max(_STALE_INTERVALS * heartbeat, _STALE_FLOOR)
        if heartbeat is not None
        else None
    )

    t_sweep = time.monotonic()
    if store is not None:
        orphans = store.gc_orphans()
        if orphans:
            events.emit("store_gc", orphans=len(orphans))
    if graph_cache is not None:
        # Same hygiene as the artifact store: staging dirs left behind
        # by a killed bundle writer are dead weight, never valid data.
        from repro.runner.graphcache import GraphCache

        stale = GraphCache(graph_cache).gc()
        if stale:
            events.emit("graphcache_gc", orphans=len(stale))
    events.emit("sweep_start", jobs=len(states), workers=workers)

    if progress is False:
        progress = ProgressLine(len(states), enabled=False)
    elif progress is None or progress is True:
        progress = ProgressLine(len(states), enabled=True if progress else None)

    # ---- cache pass -------------------------------------------------
    pending: deque[_JobState] = deque()
    for i, st in enumerate(states):
        artifact = None if (store is None or fresh) else store.get(st.spec)
        if artifact is not None:
            outcomes[i] = JobOutcome(
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

    if graph_cache is not None and pending:
        # Affinity grouping: jobs that compile the same graphs run
        # back-to-back, so by the time a group's second job is
        # dispatched some worker already has the bundles mapped.
        # Groups keep first-appearance order (dict insertion order), and
        # jobs keep input order within a group.
        groups: dict[str, list[_JobState]] = {}
        for st in pending:
            groups.setdefault(st.job_doc["affinity"], []).append(st)
        pending = deque(st for grp in groups.values() for st in grp)

    index_of = {id(st): i for i, st in enumerate(states)}
    quarantine: deque[_JobState] = deque()
    in_flight: dict = {}
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)

    def _progress():
        done = len(outcomes)
        cached = sum(1 for o in outcomes.values() if o.cached)
        failed = sum(1 for o in outcomes.values() if not o.ok)
        progress.update(done, cached, failed, len(in_flight))

    def _rebuild_pool():
        nonlocal executor
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        worker_groups.clear()  # every warm worker just died

    def _hb_path(st: _JobState) -> Path:
        return hb_dir / f"{st.key}.hb"

    def _submit(st: _JobState):
        st.started_at = time.monotonic()
        if hb_dir is not None:
            hb_file = _hb_path(st)
            hb_file.touch()  # covers the spawn gap before the first beat
            st.job_doc["heartbeat"] = str(hb_file)
            st.job_doc["heartbeat_interval"] = heartbeat
        mk = _chaos_hooks.active
        if mk is not None:
            mk.prepare_job(st.job_doc, st.key, st.charged_failures + 1)
        try:
            fut = executor.submit(_execute_job, st.job_doc)
        except BrokenProcessPool:
            # The pool died between completions; this job never started
            # (no attempt recorded) — requeue it and heal the pool.
            if st.quarantined:
                quarantine.appendleft(st)
            else:
                pending.appendleft(st)
            _handle_broken_pool(None)
            return
        in_flight[fut] = st
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
        if graph_cache is not None:
            for name, delta in (res.get("graphcache") or {}).items():
                gc_totals[name] = gc_totals.get(name, 0) + delta
            affinity = st.job_doc.get("affinity")
            if affinity is not None:
                worker_groups.setdefault(res["worker"], set()).add(affinity)
        tele = res.get("telemetry")
        if tele is not None:
            # Merge the worker's snapshot into this process so exporters
            # see the whole sweep; the artifact store never sees it.
            telemetry.ingest_spans(tele.get("spans", ()))
            telemetry.metrics().ingest(tele.get("metrics", {}))
        outcomes[index_of[id(st)]] = JobOutcome(
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

    def _fail(st: _JobState, reason: str):
        outcomes[index_of[id(st)]] = JobOutcome(
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

    def _charge(st: _JobState, kind: str, reason: str):
        """Record an at-fault attempt; retry with backoff or fail."""
        st.attempts.append(Attempt(len(st.attempts) + 1, kind, error=reason))
        st.charged_failures += 1
        if st.charged_failures > retries:
            _fail(st, reason)
            return
        delay = _retry_delay(st.key, st.charged_failures, backoff, jitter)
        st.ready_at = time.monotonic() + delay
        if kind == "crash":
            st.quarantined = True
            quarantine.append(st)
        else:
            pending.append(st)
        events.emit(
            "job_retry",
            job=st.spec.label,
            experiment=st.spec.experiment_id,
            key=st.key,
            attempt=len(st.attempts),
            kind=kind,
            reason=reason,
            backoff=round(delay, 6),
        )

    def _mark_pool_lost(st: _JobState, reason: str, to_quarantine: bool):
        """Record a not-at-fault interruption and requeue (uncharged)."""
        st.attempts.append(
            Attempt(len(st.attempts) + 1, "pool-lost", error=reason)
        )
        st.ready_at = time.monotonic()
        if to_quarantine:
            st.quarantined = True
            quarantine.append(st)
        else:
            pending.append(st)
        events.emit(
            "job_retry",
            job=st.spec.label,
            experiment=st.spec.experiment_id,
            key=st.key,
            attempt=len(st.attempts),
            kind="pool-lost",
            reason=reason,
            backoff=0.0,
        )

    def _handle_broken_pool(culprit: _JobState | None):
        """The executor died.  Attribute the crash when possible,
        quarantine every ambiguous suspect, and rebuild the pool."""
        suspects = [culprit] if culprit is not None else []
        suspects.extend(in_flight.values())
        in_flight.clear()
        _rebuild_pool()
        if len(suspects) == 1:
            _charge(suspects[0], "crash", "worker process crashed")
            return
        for st in suspects:
            _mark_pool_lost(
                st,
                "worker pool crashed with several jobs in flight; "
                "re-running solo to attribute the crash",
                to_quarantine=True,
            )

    def _take_pending(now: float) -> _JobState | None:
        """Pop the next ready pending job.  With a graph cache active,
        prefer a job whose affinity group some live worker has already
        served — that worker's bundle maps are warm, and with grouped
        submission it is the likely consumer of the next slot.  Falls
        back to the first ready job; keeps relative order otherwise."""
        if graph_cache is not None and worker_groups:
            warm = set().union(*worker_groups.values())
            fallback = None
            for idx, st in enumerate(pending):
                if st.ready_at > now:
                    continue
                if st.job_doc["affinity"] in warm:
                    del pending[idx]
                    warm_dispatch["warm"] += 1
                    return st
                if fallback is None:
                    fallback = idx
            if fallback is None:
                return None
            st = pending[fallback]
            del pending[fallback]
            warm_dispatch["cold"] += 1
            return st
        for idx, st in enumerate(pending):
            if st.ready_at <= now:
                del pending[idx]
                return st
        return None

    def _enforce_deadline() -> bool:
        """Past the sweep deadline: stop the pool, fail everything
        unfinished with a terminal ``deadline`` attempt."""
        cancelled = len(in_flight) + len(pending) + len(quarantine)
        events.emit("sweep_deadline", cancelled=cancelled)
        cut = list(in_flight.values()) + list(pending) + list(quarantine)
        in_flight.clear()
        pending.clear()
        quarantine.clear()
        _rebuild_pool()  # terminates any still-running workers
        for st in cut:
            st.attempts.append(
                Attempt(
                    len(st.attempts) + 1, "deadline",
                    error=f"sweep deadline of {deadline:g}s exceeded",
                )
            )
            _fail(st, f"sweep deadline of {deadline:g}s exceeded")
        return True

    _progress()
    try:
        while pending or quarantine or in_flight:
            now = time.monotonic()
            if deadline is not None and now - t_sweep > deadline:
                _enforce_deadline()
                break

            # Quarantined suspects run strictly solo so a repeat crash
            # is attributable; normal submission resumes afterwards.
            if quarantine:
                if not in_flight and quarantine[0].ready_at <= now:
                    _submit(quarantine.popleft())
            else:
                while pending and len(in_flight) < workers:
                    st = _take_pending(now)
                    if st is None:
                        break
                    _submit(st)

            if not in_flight:
                nxt = min(
                    (st.ready_at for st in list(pending) + list(quarantine)),
                    default=now,
                )
                time.sleep(min(max(nxt - now, 0.0), _WAIT_TICK) or 0.001)
                continue

            done, _ = wait(
                list(in_flight), timeout=_WAIT_TICK, return_when=FIRST_COMPLETED
            )
            broken = False
            for fut in done:
                st = in_flight.pop(fut, None)
                if st is None:
                    continue
                try:
                    res = fut.result(timeout=0)
                except BrokenProcessPool:
                    _handle_broken_pool(st)
                    broken = True
                    break
                except BaseException as exc:  # job raised inside worker
                    _charge(
                        st, "error", f"{type(exc).__name__}: {exc}"
                    )
                else:
                    _finish_ok(st, res)
            if broken:
                _progress()
                continue

            # Per-job watchdog: kill the pool (only way to stop a
            # running worker), charge the overdue job, respawn the rest.
            # With heartbeats on, only *stale* workers count as hung.
            if timeout is not None:
                now = time.monotonic()
                overdue: list[tuple] = []
                for fut, st in in_flight.items():
                    if st.started_at is None or now - st.started_at <= timeout:
                        continue
                    if stale_after is not None:
                        try:
                            age = time.time() - _hb_path(st).stat().st_mtime
                        except OSError:
                            age = float("inf")
                        if age <= stale_after:
                            continue  # slow but alive: spare it
                        reason = (
                            f"heartbeat stale for {age:.2f}s past the "
                            f"{timeout:g}s timeout (presumed hung)"
                        )
                    else:
                        reason = f"exceeded per-job timeout of {timeout:g}s"
                    overdue.append((fut, st, reason))
                if overdue:
                    overdue_futs = {f for f, _, _ in overdue}
                    survivors = [
                        st for fut, st in in_flight.items()
                        if fut not in overdue_futs
                    ]
                    in_flight.clear()
                    _rebuild_pool()
                    for _, st, reason in overdue:
                        _charge(st, "timeout", reason)
                    for st in survivors:
                        _mark_pool_lost(
                            st,
                            "worker pool recycled to enforce a timeout "
                            "on another job",
                            to_quarantine=False,
                        )
            _progress()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
        progress.finish()
        if hb_dir is not None:
            shutil.rmtree(hb_dir, ignore_errors=True)

    ordered = [outcomes[i] for i in range(len(states))]
    n_ok = sum(1 for o in ordered if o.status == "ok")
    n_cached = sum(1 for o in ordered if o.cached)
    n_failed = sum(1 for o in ordered if not o.ok)
    extra = {}
    if graph_cache is not None:
        if not profile:
            # Without profiling the workers' metric registries never get
            # merged back, so surface the per-job deltas here.  (With
            # profiling they already arrived via telemetry ingestion —
            # adding them again would double-count.)
            reg = telemetry.metrics()
            for name, delta in gc_totals.items():
                reg.inc(f"graphcache.{name}", delta)
        extra["graphcache"] = {
            **{k: v for k, v in gc_totals.items() if "." not in k},
            "affinity_warm": warm_dispatch["warm"],
            "affinity_cold": warm_dispatch["cold"],
        }
    events.emit(
        "sweep_finish",
        ok=n_ok,
        failed=n_failed,
        cached=n_cached,
        duration=round(time.monotonic() - t_sweep, 6),
        **extra,
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
