"""The chaos monkey: plan decisions wired into the runner's hook points.

``with chaos.monkey(plan):`` installs a :class:`ChaosMonkey` into
:mod:`repro.chaos.hooks`; the runner's pool, store and event log then
consult it at their injection sites.  The monkey is the only stateful
part of the subsystem — it counts what it injected (mirrored into the
``chaos.injected*`` telemetry counters) and enforces the one-shot
bookkeeping for kill faults so a resumed sweep does not die at the
same event forever.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repro.chaos import hooks
from repro.chaos.faults import SweepKilled, apply_store_fault
from repro.chaos.plan import FaultPlan

__all__ = ["ChaosMonkey", "monkey"]


class ChaosMonkey:
    """Applies a :class:`FaultPlan` at the runner's injection sites."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: Counter = Counter()  # "site:kind" -> count
        self.kills = 0
        self._fired_event_keys: set[str] = set()
        self._armed = True

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def disarm(self) -> None:
        """Stop injecting (hooks become no-ops); counters survive."""
        self._armed = False

    def rearm(self) -> None:
        self._armed = True

    def _record(self, site: str, kind: str) -> None:
        self.injected[f"{site}:{kind}"] += 1
        from repro import telemetry

        registry = telemetry.metrics()
        registry.inc("chaos.injected")
        registry.inc(f"chaos.injected.{site}")

    # ------------------------------------------------------------------
    # Hook points (called by the runner; must stay cheap and safe)
    # ------------------------------------------------------------------

    def prepare_job(self, job_doc: dict, key: str, attempt: int) -> None:
        """Pool hook: decide a worker fault for this submission and, if
        one fires, ship its description inside the job doc."""
        job_doc.pop("chaos", None)
        if not self._armed:
            return
        kind = self.plan.decide("worker", key, attempt)
        if kind is None:
            return
        job_doc["chaos"] = self.plan.worker_fault_doc(kind)
        self._record("worker", kind)

    def corrupt_artifact(self, path, key: str) -> None:
        """Store hook: corrupt a just-written artifact."""
        if not self._armed:
            return
        kind = self.plan.decide("store", key)
        if kind is None:
            return
        apply_store_fault(kind, Path(path))
        self._record("store", kind)

    def on_event(self, log, record: dict) -> None:
        """Event-log hook: simulate the driver dying mid-write.

        Fires only at ``job_finish`` records, at most
        ``plan.max_kills`` times, and never twice for the same event
        key — a resumed sweep replays the same finishes, and a chaos
        run must converge.
        """
        if not self._armed or record.get("event") != "job_finish":
            return
        if self.kills >= self.plan.max_kills:
            return
        event_key = f"job_finish:{record.get('key')}"
        if event_key in self._fired_event_keys:
            return
        kind = self.plan.decide("events", event_key)
        if kind is None:
            return
        self._fired_event_keys.add(event_key)
        self.kills += 1
        self._record("events", kind)
        if kind == "torn_tail" and getattr(log, "_stream", None) is not None:
            blob = json.dumps(record, sort_keys=True)
            log._stream.write(blob[: max(1, len(blob) // 2)])
            log._stream.flush()
        raise SweepKilled(f"chaos: simulated SIGKILL at {event_key} ({kind})")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """JSON-native summary of everything this monkey injected."""
        by_site: Counter = Counter()
        for site_kind, n in self.injected.items():
            by_site[site_kind.split(":", 1)[0]] += n
        return {
            "seed": self.plan.seed,
            "injected": dict(sorted(self.injected.items())),
            "injected_by_site": dict(sorted(by_site.items())),
            "injected_total": sum(self.injected.values()),
            "kills": self.kills,
        }


@contextmanager
def monkey(plan_or_monkey: FaultPlan | ChaosMonkey):
    """Install a chaos monkey for the duration of the block.

    Accepts a :class:`FaultPlan` (a fresh monkey is created) or an
    existing :class:`ChaosMonkey` (so a soak loop can keep one-shot
    state across sweep restarts).  The previously installed monkey, if
    any, is restored on exit.
    """
    mk = (
        plan_or_monkey
        if isinstance(plan_or_monkey, ChaosMonkey)
        else ChaosMonkey(plan_or_monkey)
    )
    previous = hooks.active
    hooks.install(mk)
    try:
        yield mk
    finally:
        if previous is None:
            hooks.uninstall()
        else:
            hooks.install(previous)
