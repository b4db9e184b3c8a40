"""Structured JSONL event log and live progress line.

Every scheduler decision is recorded as one JSON object per line:
job start/finish/retry/failure, cache hits, and sweep begin/end, each
with a wall-clock timestamp and (where known) the worker pid and
duration.  The log is the sweep's flight recorder — retry histories and
cache-hit rates in tests and post-mortems come from here, never from
parsing human-readable output.  Timestamps live only in the event log,
never in stored artifacts, which keeps artifacts byte-reproducible.
A rerun never reads the log: what a rerun of a killed sweep skips comes
from the result store alone.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Mapping

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "ProgressLine",
    "read_events",
    "validate_event",
    "tally",
]

#: Required fields per event type (beyond the envelope ``ts``/``event``).
EVENT_SCHEMA: dict[str, frozenset] = {
    "sweep_start": frozenset({"jobs", "workers"}),
    "sweep_finish": frozenset({"ok", "failed", "cached", "duration"}),
    "store_gc": frozenset({"orphans"}),
    "cache_hit": frozenset({"job", "experiment", "key"}),
    "job_start": frozenset({"job", "experiment", "key", "attempt"}),
    "job_finish": frozenset(
        {"job", "experiment", "key", "attempt", "duration", "worker"}
    ),
    "job_retry": frozenset({"job", "experiment", "key", "attempt", "kind", "reason"}),
    "job_failed": frozenset({"job", "experiment", "key", "attempts", "reason"}),
}


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


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event log back into records (skipping blank
    lines); a malformed line raises ``json.JSONDecodeError``."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


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
