"""Fault bodies: what actually happens when a plan decision fires.

Worker faults run inside the pool worker (shipped there as a plain
dict inside the job doc — no chaos state crosses the pickle boundary);
store faults mutate a just-written artifact file in place; the kill
faults are raised as :class:`SweepKilled` from the event-log hook so
the scheduler unwinds exactly as if the driver process had died
mid-write.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Mapping

__all__ = [
    "ChaosInjectedError",
    "SweepKilled",
    "apply_worker_fault",
    "apply_store_fault",
]


class ChaosInjectedError(RuntimeError):
    """An injected, deliberately-survivable worker failure."""


class SweepKilled(RuntimeError):
    """Simulated mid-sweep SIGKILL (raised from the event-log hook).

    :func:`repro.chaos.soak.run_chaos_sweep` catches this, recovers the
    journal, and restarts the sweep against the same store — the
    crash-safe-resume path under test.
    """


def apply_worker_fault(doc: Mapping) -> None:
    """Apply a worker-site fault described by ``doc`` (see
    :meth:`FaultPlan.worker_fault_doc`).  ``slow`` returns normally so
    the real job body still runs; every other kind does not return."""
    kind = doc.get("kind")
    if kind == "exception":
        raise ChaosInjectedError("chaos: injected worker exception")
    if kind == "exit":
        os._exit(21)  # segfault-style: no exception, no cleanup
    if kind == "oom":
        # Bounded over-allocation: enough to be a real allocation, far
        # too small to endanger the host, then the failure the kernel
        # would have delivered anyway.
        ballast = bytearray(int(doc.get("oom_bytes", 32 << 20)))
        raise MemoryError(
            f"chaos: simulated OOM after allocating {len(ballast)} bytes"
        )
    if kind == "hang":
        # The caller skipped starting the heartbeat thread for this
        # fault, so the watchdog sees a stale heartbeat — a *true*
        # hang.  The raise below only fires if no watchdog is armed,
        # keeping the sweep terminating either way.
        time.sleep(float(doc.get("hang_seconds", 30.0)))
        raise ChaosInjectedError("chaos: hang outlived the watchdog")
    if kind == "slow":
        time.sleep(float(doc.get("slow_seconds", 0.3)))
        return
    raise ValueError(f"unknown worker fault kind {kind!r}")


def _flip_payload_byte(path: Path) -> None:
    """Flip one byte *inside the serialised result payload* so the
    artifact still parses as JSON but fails checksum verification
    (flipping indentation or envelope bytes could go undetected or be
    caught by the cheaper key/schema checks instead)."""
    data = bytearray(path.read_bytes())
    anchor = data.find(b'"result"')
    start = anchor + len(b'"result"') if anchor != -1 else 0
    for i in range(start, len(data)):
        c = data[i]
        if 0x30 <= c <= 0x39 or 0x61 <= c <= 0x7A:  # digit or lowercase
            data[i] ^= 0x02
            break
    path.write_bytes(bytes(data))


def apply_store_fault(kind: str, path: str | os.PathLike) -> None:
    """Corrupt the artifact at ``path`` in the way ``kind`` names."""
    path = Path(path)
    if kind == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    elif kind == "bitflip":
        _flip_payload_byte(path)
    elif kind == "orphan":
        stray = path.parent / f".tmp-chaos-{path.stem[:12]}.json"
        stray.write_text('{"torn": tru', encoding="utf-8")
    elif kind == "perm":
        path.chmod(0)
    else:
        raise ValueError(f"unknown store fault kind {kind!r}")
