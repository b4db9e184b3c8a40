"""Structured JSONL event log and live progress line.

Every scheduler decision is recorded as one JSON object per line:
job start/finish/retry/failure, cache hits, and sweep begin/end, each
with a wall-clock timestamp and (where known) the worker pid and
duration.  The log is the sweep's flight recorder — retry histories and
cache-hit rates in tests and post-mortems come from here, never from
parsing human-readable output.  Timestamps live only in the event log,
never in stored artifacts, which keeps artifacts byte-reproducible.

The log is also the sweep's *journal*: a process killed mid-write
leaves a torn final line, which :meth:`EventLog.recover` truncates in
place before the log is reopened for append, :func:`read_events`
tolerates via ``strict=False``, and :func:`replay_journal` summarises
so a resumed sweep knows which jobs already reached a terminal state.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Mapping

from repro.chaos import hooks as _chaos_hooks

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "ProgressLine",
    "read_events",
    "replay_journal",
    "validate_event",
    "tally",
]

#: Required fields per event type (beyond the envelope ``ts``/``event``).
EVENT_SCHEMA: dict[str, frozenset] = {
    "sweep_start": frozenset({"jobs", "workers"}),
    "sweep_resume": frozenset({"jobs", "complete", "failed"}),
    "sweep_finish": frozenset({"ok", "failed", "cached", "duration"}),
    "sweep_deadline": frozenset({"cancelled"}),
    "store_gc": frozenset({"orphans"}),
    "graphcache_gc": frozenset({"orphans"}),
    "cache_hit": frozenset({"job", "experiment", "key"}),
    "job_start": frozenset({"job", "experiment", "key", "attempt"}),
    "job_finish": frozenset(
        {"job", "experiment", "key", "attempt", "duration", "worker"}
    ),
    "job_retry": frozenset({"job", "experiment", "key", "attempt", "kind", "reason"}),
    "job_failed": frozenset({"job", "experiment", "key", "attempts", "reason"}),
}

#: Events that mark a job's terminal state in the journal.
_TERMINAL_EVENTS = frozenset({"job_finish", "cache_hit", "job_failed"})


class EventLog:
    """Appends JSONL records to ``path`` (or any writable stream) and
    keeps in-memory per-type counters either way."""

    def __init__(
        self,
        path: str | Path | None = None,
        stream: IO[str] | None = None,
        clock=time.time,
    ):
        self.path = Path(path) if path is not None else None
        self._stream = stream
        self._clock = clock
        self._owned = False
        self.counts: Counter = Counter()
        self.records: list[dict] = []
        self._bound: dict = {}
        if self.path is not None and self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("a", encoding="utf-8")
            self._owned = True

    def bind(self, **fields) -> None:
        """Merge ``fields`` into every subsequent record (drop a field
        by binding it to ``None``) — used to stamp all of a sweep's
        events with its telemetry span id."""
        for name, value in fields.items():
            if value is None:
                self._bound.pop(name, None)
            else:
                self._bound[name] = value

    def emit(self, event: str, **fields) -> dict:
        record = {"ts": round(float(self._clock()), 6), "event": event}
        record.update(self._bound)
        record.update(fields)
        mk = _chaos_hooks.active
        if mk is not None:
            # May raise SweepKilled (simulated mid-write death) — in
            # that case neither the file nor the in-memory log sees the
            # record, exactly like a real SIGKILL.
            mk.on_event(self, record)
        self.counts[event] += 1
        self.records.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record, sort_keys=True) + "\n")
            self._stream.flush()
        return record

    def close(self) -> None:
        if self._owned and self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def recover(path: str | Path) -> dict:
        """Repair a journal after an unclean death, in place.

        Truncates a torn final line (no trailing newline) so the file
        can be reopened for append, and counts undecodable interior
        lines.  Returns ``{"existed", "records", "dropped_bytes",
        "bad_lines"}``; safe to call on a missing or healthy file.
        """
        p = Path(path)
        if not p.exists():
            return {"existed": False, "records": 0, "dropped_bytes": 0, "bad_lines": 0}
        data = p.read_bytes()
        dropped = 0
        if data and not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            dropped = len(data) - cut
            with p.open("r+b") as fh:
                fh.truncate(cut)
        records, bad_lines = read_events(p, strict=False)
        if dropped or bad_lines:
            from repro import telemetry

            registry = telemetry.metrics()
            registry.inc("chaos.detected")
            registry.inc("chaos.detected.torn_log")
            if dropped:
                registry.inc("chaos.recovered")
                registry.inc("chaos.recovered.log_truncated")
        return {
            "existed": True,
            "records": len(records),
            "dropped_bytes": dropped,
            "bad_lines": bad_lines,
        }


def read_events(path: str | Path, *, strict: bool = True):
    """Parse a JSONL event log back into records (skipping blank lines).

    With ``strict=True`` (the default) a malformed line raises
    ``json.JSONDecodeError`` and the return value is the record list.
    With ``strict=False`` malformed lines — e.g. the torn tail a
    SIGKILL leaves behind — are skipped and counted, and the return
    value is ``(records, n_bad)``.
    """
    records = []
    n_bad = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
                n_bad += 1
    if strict:
        return records
    return records, n_bad


def replay_journal(path: str | Path) -> dict:
    """Recover ``path`` and summarise which jobs already terminated.

    Returns ``{"complete": {keys}, "failed": {keys}, "existed",
    "records", "dropped_bytes", "bad_lines"}`` where ``complete`` holds
    cache keys that reached ``job_finish``/``cache_hit`` and ``failed``
    holds keys whose *latest* terminal event was ``job_failed``.  Used
    at sweep startup so ``--resume`` after a SIGKILL can report what
    the journal already accounts for.
    """
    info = EventLog.recover(path)
    complete: set[str] = set()
    failed: set[str] = set()
    if info["existed"]:
        records, _ = read_events(path, strict=False)
        for record in records:
            key = record.get("key")
            event = record.get("event")
            if key is None or event not in _TERMINAL_EVENTS:
                continue
            if event == "job_failed":
                failed.add(key)
                complete.discard(key)
            else:
                complete.add(key)
                failed.discard(key)
    return {"complete": complete, "failed": failed, **info}


def validate_event(record: Mapping) -> list[str]:
    """Schema check of one event record; returns a list of problems
    (empty when the record is well-formed)."""
    problems = []
    if "ts" not in record:
        problems.append("missing 'ts'")
    elif not isinstance(record["ts"], (int, float)):
        problems.append("'ts' is not numeric")
    event = record.get("event")
    if event is None:
        problems.append("missing 'event'")
        return problems
    required = EVENT_SCHEMA.get(event)
    if required is None:
        problems.append(f"unknown event type {event!r}")
        return problems
    for name in sorted(required):
        if name not in record:
            problems.append(f"{event}: missing field {name!r}")
    return problems


class ProgressLine:
    """Single overwriting status line on a terminal (no-op elsewhere).

    The scheduler calls :meth:`update` after every state change; the
    line shows completed/total plus cached, failed and in-flight
    counts, so a long sweep is observable without tailing the JSONL
    log.
    """

    def __init__(
        self,
        total: int,
        stream: IO[str] | None = None,
        enabled: bool | None = None,
    ):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self.enabled = enabled
        self._last_len = 0

    def update(self, done: int, cached: int, failed: int, running: int) -> None:
        if not self.enabled:
            return
        line = (
            f"sweep: {done}/{self.total} done"
            f" ({cached} cached, {failed} failed, {running} running)"
        )
        pad = " " * max(0, self._last_len - len(line))
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_len = len(line)

    def finish(self) -> None:
        if self.enabled and self._last_len:
            self.stream.write("\n")
            self.stream.flush()
            self._last_len = 0


def tally(records: Iterable[Mapping]) -> Counter:
    """Per-type counts over an iterable of event records."""
    return Counter(r.get("event") for r in records)
