"""The simulation loop of the core.

One loop plays the two-level machine over a
:class:`~repro.simcore.plan.SchedulePlan` — pin the step's vertices,
load missing operands, evict on demand, write back dirty values that
are still live, compute, and drain the outputs at the end.  State is
held in the forms the interpreter is fast on: bytearray bitmaps, Python
lists and one list slice of operands per step.

A policy is two things.  The key a touch gives a vertex: the step of
its last touch (LRU), its insertion step (FIFO), or ``T - next_use``
(Belady, with ``T = plan.n_steps`` as the "never used again"
sentinel).  And the victim pop in ``evict_one``, over the structure
that orders those keys; every policy evicts the smallest ``(key, v)``
among the cached vertices the step has not pinned:

- **LRU and FIFO: a recency queue.**  Stamps are steps, pushed in
  nondecreasing order, and every entry stamped at step ``t`` belongs to
  a vertex pinned during step ``t``, so no eviction of that step may
  take it.
  The queue is two parallel lists (vertex ids and stamps) plus a head
  cursor; a step collects its stamped vertices and appends them, sorted
  by id, once its compute is done.  The queue is then sorted by
  ``(stamp, v)``, and each cached vertex has exactly one fresh entry,
  the one carrying its current stamp.  So the first fresh unpinned
  entry from the head is the victim: stale entries (evicted, or
  re-stamped since) are skipped, the head advances over a stale prefix
  and past the victim, and fresh pinned entries stay where they are.
  Once the head passes half the list the consumed prefix is deleted.
- **Belady: a heap of ints.**  Entries are encoded as ``key * n + v``,
  which orders exactly like ``(key, v)`` because ``v < n``.  The pop
  drops entries of evicted or pinned vertices and stops at the first
  other one, which is always fresh (the argument is next to the pop).

The loop runs FIFO, ``io_trace`` runs and the ``events`` replay; LRU
and Belady configurations that only want counts come from one pass per
policy for every cache size instead (:mod:`repro.simcore.stack`).
Victim choices are bit-identical to the golden reference policies kept
under ``tests/``; the golden-equivalence tests enforce this across
schedules x policies x cache sizes.

The optional ``events`` callback receives every implied machine move —
``("load", v)``, ``("store", v)``, ``("delete", v)``, ``("compute",
v)`` — in execution order, which is exactly a red-blue pebble-game move
sequence: :func:`repro.pebbling.pebble_game.trace_from_executor` replays
a run through a legality-checking :class:`PebbleGame` by forwarding
these events, with no second policy implementation involved.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.errors import CacheError, ScheduleError
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import enabled as _telemetry_enabled

__all__ = ["POLICIES", "count_simulation", "simulate_py"]

#: The eviction policies the loop plays.
POLICIES = ("lru", "fifo", "belady")


def count_simulation() -> None:
    """Count one simulated configuration
    (``simcore.kernel.fallback``).  No-op while telemetry is
    disabled."""
    if _telemetry_enabled():
        metrics().inc("simcore.kernel.fallback")


def simulate_py(plan, is_input_arr, is_output_arr, cache_size,
                policy, io_trace=None, events=None):
    """Run one ``(cache_size, policy)`` configuration over a plan with
    the pure-Python loop; returns the raw count tuple ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)``.  ``policy`` is one of :data:`POLICIES`; any other name
    raises :class:`CacheError`."""
    if policy not in POLICIES:
        raise CacheError(f"unknown eviction policy {policy!r}")
    count_simulation()
    belady = policy == "belady"
    refresh_on_use = policy == "lru"
    plan.ensure_lists(belady)
    sched = plan._sched_l
    indptr = plan._indptr_l
    ops = plan._ops_l
    occ_next = plan._occ_next_l
    first_use = plan._first_use_l
    uses_left = list(plan._uses_l)
    n = len(is_input_arr)
    T = plan.n_steps
    is_input = is_input_arr.tolist()
    is_output = is_output_arr.tolist()
    cached = bytearray(n)
    dirty = bytearray(n)
    in_slow = bytearray(np.ascontiguousarray(is_input_arr).tobytes())
    output_written = bytearray(n)
    # key[v]: the stamp of v's one fresh queue entry (LRU, FIFO); any
    # other entry of v is stale.  Belady keeps no key (see evict_one).
    key = [0] * n
    pinned_mark = [-1] * n
    heap: list[int] = []
    queue_v: list[int] = []
    queue_s: list[int] = []
    head = 0

    reads = writes = input_reads = spill_reads = spill_writes = 0
    output_writes = 0
    peak = n_cached = evictions = 0
    t = 0

    def evict_one() -> None:
        nonlocal writes, spill_writes, output_writes, evictions, n_cached
        nonlocal head
        if belady:
            # Top entry = furthest next use, ties on the smaller id.
            # Entries of evicted or pinned vertices are popped for good;
            # the first other entry is the victim's fresh one.  A
            # vertex's key, T - next_use, only falls over its life, so
            # its stale entries sit behind its fresh one; and every
            # vertex pinned at step t is pushed again at the end of step
            # t, so a cached unpinned vertex always has its fresh entry
            # in the heap.  An exhausted heap therefore means no victim.
            while True:
                if not heap:
                    raise CacheError("no eviction candidate available")
                u = heap[0] % n
                if cached[u] and pinned_mark[u] != t:
                    break
                heappop(heap)
        else:
            # The queue is in (stamp, v) order: its first fresh unpinned
            # entry is the heap's pop.
            i = head
            end = len(queue_v)
            while True:
                if i == end:
                    raise CacheError("no eviction candidate available")
                u = queue_v[i]
                if cached[u] and key[u] == queue_s[i]:
                    if pinned_mark[u] != t:
                        break
                elif i == head:
                    head += 1
                i += 1
            if i == head:
                head += 1
            if head > end >> 1:
                del queue_v[:head]
                del queue_s[:head]
                head = 0
        evictions += 1
        cached[u] = 0
        n_cached -= 1
        if dirty[u]:
            if uses_left[u] > 0 or (is_output[u] and not output_written[u]):
                if events is not None:
                    events("store", u)
                writes += 1
                in_slow[u] = 1
                if is_output[u]:
                    output_writes += 1
                    output_written[u] = 1
                else:
                    spill_writes += 1
            dirty[u] = 0
        if events is not None:
            events("delete", u)

    for t, v in enumerate(sched):
        step_ops = ops[indptr[t]:indptr[t + 1]]
        pinned_mark[v] = t
        for p in step_ops:
            pinned_mark[p] = t
        # Load missing operands.  A recency policy stamps a load (and,
        # for LRU, a hit) with the step; Belady keys operands after the
        # compute.
        stamped = []
        for p in step_ops:
            if cached[p]:
                if refresh_on_use and key[p] != t:
                    key[p] = t
                    stamped.append(p)
                continue
            if not in_slow[p]:
                raise ScheduleError(
                    f"operand {p} of {v} is neither cached nor in slow memory"
                )
            while n_cached >= cache_size:
                evict_one()
            if events is not None:
                events("load", p)
            cached[p] = 1
            n_cached += 1
            if not belady:
                key[p] = t
                stamped.append(p)
            reads += 1
            if is_input[p]:
                input_reads += 1
            else:
                spill_reads += 1
        # Make room for the result and compute.
        while n_cached >= cache_size:
            evict_one()
        if events is not None:
            events("compute", v)
        if not cached[v]:
            cached[v] = 1
            n_cached += 1
        dirty[v] = 1
        if n_cached > peak:
            peak = n_cached
        if belady:
            heappush(heap, (T - first_use[v]) * n + v)
            # One entry per operand use, pushed after the compute so
            # that this step's destructive pinned pops cannot drop it.
            for p, nxt in zip(step_ops,
                              occ_next[indptr[t]:indptr[t + 1]]):
                heappush(heap, (T - nxt) * n + p)
        else:
            # This step's stamped vertices were pinned all step; appended
            # now, sorted, they keep the queue in (stamp, v) order.
            key[v] = t
            stamped.append(v)
            stamped.sort()
            queue_v += stamped
            queue_s += [t] * len(stamped)
        for p in step_ops:
            uses_left[p] -= 1
        if io_trace is not None:
            io_trace.append(reads + writes)

    # Drain: outputs still dirty must reach slow memory.
    for u in np.flatnonzero(is_output_arr).tolist():
        if dirty[u] and not output_written[u]:
            if events is not None:
                events("store", u)
            writes += 1
            output_writes += 1
            output_written[u] = 1

    return (reads, writes, input_reads, spill_reads, spill_writes,
            output_writes, peak, evictions)
