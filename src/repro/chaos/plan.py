"""Seeded, reproducible fault schedules.

A :class:`FaultPlan` is a pure function from a *decision point* — an
injection site plus a stable key (job cache key, artifact key, event
key) plus an attempt number — to "inject nothing" or a concrete fault
kind.  Decisions are drawn from a PRF over the plan seed rather than a
stateful RNG, so they are independent of scheduler interleaving: the
same seed replays the same fault schedule no matter how the pool
ordered the jobs, and a single decision can be re-derived in a worker
process without shipping RNG state across the boundary.

Sites and kinds:

- ``worker`` — faults applied inside the worker before the job body
  runs: ``exception`` (ordinary raise), ``exit`` (segfault-style
  ``os._exit``), ``hang`` (heartbeat stops, sleeps past the watchdog),
  ``oom`` (over-allocates then raises ``MemoryError``), ``slow``
  (sleeps with a live heartbeat, then completes normally — the case
  the watchdog must *not* kill);
- ``store`` — artifact corruption applied right after a successful
  ``put``: ``truncate``, ``bitflip`` (flips a byte inside the result
  payload), ``orphan`` (drops a stray ``.tmp-*.json`` next to the
  artifact), ``perm`` (chmod 000);
- ``events`` — log faults at ``job_finish`` emits: ``torn_tail``
  (writes half a JSONL line, then the sweep "dies") and ``sigkill``
  (dies without writing the record at all).  Both raise
  :class:`~repro.chaos.faults.SweepKilled`, which
  :func:`~repro.chaos.soak.run_chaos_sweep` treats as a mid-sweep
  SIGKILL and recovers from.

Worker faults fire only while a job has at most
``max_worker_faults_per_job`` charged failures, so a retried job
eventually runs clean and the soak invariant (every job reaches a
terminal state) holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.utils.prf import prf01, prf_choice

__all__ = ["FaultPlan", "WORKER_KINDS", "STORE_KINDS", "EVENT_KINDS"]

WORKER_KINDS = ("exception", "exit", "hang", "oom", "slow")
STORE_KINDS = ("truncate", "bitflip", "orphan", "perm")
EVENT_KINDS = ("torn_tail", "sigkill")

_SITES = ("worker", "store", "events")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule derived from ``seed``.

    Rates are per-decision-point probabilities; kinds are drawn
    uniformly from the site's kind tuple.  ``max_kills`` caps how many
    ``events``-site faults the monkey will fire over its lifetime
    (each simulated SIGKILL forces a sweep restart, so the cap bounds
    the chaos loop).
    """

    seed: int
    worker_rate: float = 0.35
    store_rate: float = 0.35
    log_rate: float = 0.10
    max_worker_faults_per_job: int = 1
    max_kills: int = 1
    hang_seconds: float = 30.0
    slow_seconds: float = 0.3
    oom_bytes: int = 32 << 20
    worker_kinds: tuple = WORKER_KINDS
    store_kinds: tuple = STORE_KINDS
    log_kinds: tuple = EVENT_KINDS

    def __post_init__(self):
        for name in ("worker_rate", "store_rate", "log_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        object.__setattr__(self, "worker_kinds", tuple(self.worker_kinds))
        object.__setattr__(self, "store_kinds", tuple(self.store_kinds))
        object.__setattr__(self, "log_kinds", tuple(self.log_kinds))

    def _site(self, site: str) -> tuple[float, tuple]:
        if site == "worker":
            return self.worker_rate, self.worker_kinds
        if site == "store":
            return self.store_rate, self.store_kinds
        if site == "events":
            return self.log_rate, self.log_kinds
        raise ValueError(f"unknown fault site {site!r} (expected one of {_SITES})")

    def decide(self, site: str, key: str, attempt: int = 1) -> str | None:
        """The fault kind to inject at this decision point, or None.

        ``attempt`` is the 1-based *charged* attempt number for worker
        faults (faults stop firing once a job has absorbed
        ``max_worker_faults_per_job`` charged failures, so retries
        converge); it is ignored at the other sites.
        """
        rate, kinds = self._site(site)
        if not kinds or rate <= 0.0:
            return None
        if site == "worker" and attempt > self.max_worker_faults_per_job:
            return None
        if prf01(self.seed, site, key, attempt) >= rate:
            return None
        return prf_choice(kinds, self.seed, "kind", site, key, attempt)

    def worker_fault_doc(self, kind: str) -> dict:
        """The self-contained fault description shipped to a worker
        (crosses the pickle boundary inside the job doc)."""
        return {
            "kind": kind,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
            "oom_bytes": self.oom_bytes,
        }

    # ------------------------------------------------------------------
    # Serialisation (CLI round-trips and reports)
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "worker_rate": self.worker_rate,
            "store_rate": self.store_rate,
            "log_rate": self.log_rate,
            "max_worker_faults_per_job": self.max_worker_faults_per_job,
            "max_kills": self.max_kills,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
            "oom_bytes": self.oom_bytes,
            "worker_kinds": list(self.worker_kinds),
            "store_kinds": list(self.store_kinds),
            "log_kinds": list(self.log_kinds),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "FaultPlan":
        doc = dict(doc)
        for name in ("worker_kinds", "store_kinds", "log_kinds"):
            if name in doc:
                doc[name] = tuple(doc[name])
        return cls(**doc)
