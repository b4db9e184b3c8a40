"""Pure-Python fallback loop of the simulation core.

The Python specialisation of the :mod:`repro.simcore.policies` machine
step, not a second design: one loop plays the two-level machine over a
:class:`~repro.simcore.plan.SchedulePlan` — pin the step's vertices,
load missing operands, evict on demand, write back dirty values that
are still live, compute, and drain the outputs at the end.  State is
held in the forms the interpreter is fast on: bytearray bitmaps, a
per-vertex key list and one lazy heap of ``(key, v)`` tuples.

A policy is two things.  The key a touch gives a vertex: the step of
its last touch (LRU), its insertion step (FIFO), or ``-next_use``
(Belady, with ``plan.n_steps`` as the "never used again" sentinel).
And the victim pop in ``evict_one``.  Running the kernel code itself
under the interpreter (the ``interp`` mode) is about ten times slower
(E9's r = 4 recursive grid, 8 configurations: ~6 s against ~0.6 s on a
2-vCPU host), which is why the fallback keeps this loop.  Victim
choices are bit-identical to the golden reference policies kept under
``tests/`` *and* to the compiled kernels; the golden-equivalence tests
enforce this across schedules x policies x cache sizes.

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
from repro.simcore.dispatch import count_path

__all__ = ["simulate_py"]


def simulate_py(plan, is_input_arr, is_output_arr, cache_size,
                policy_code, io_trace=None, events=None):
    """Run one ``(cache_size, policy)`` configuration over a plan with
    the pure-Python loop; returns the raw count tuple ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)``.  Policy codes: 0 = LRU, 1 = FIFO, 2 = Belady."""
    count_path("off")
    plan.ensure_lists()
    sched = plan._sched_l
    indptr = plan._indptr_l
    ops = plan._ops_l
    occ_next = plan._occ_next_l
    first_use = plan._first_use_l
    uses_left = list(plan._uses_l)
    n = len(is_input_arr)
    is_input = is_input_arr.tolist()
    is_output = is_output_arr.tolist()
    cached = bytearray(n)
    dirty = bytearray(n)
    in_slow = bytearray(np.ascontiguousarray(is_input_arr).tobytes())
    output_written = bytearray(n)
    belady = policy_code == 2
    refresh_on_use = policy_code == 0
    # key[v] is the key of v's one fresh heap entry; any other entry
    # of v is stale.
    key = [0] * n
    pinned_mark = [-1] * n
    heap: list[tuple[int, int]] = []

    reads = writes = input_reads = spill_reads = spill_writes = 0
    output_writes = 0
    peak = n_cached = evictions = 0
    t = 0

    def evict_one() -> None:
        nonlocal writes, spill_writes, output_writes, evictions, n_cached
        if belady:
            # Top entry = furthest next use, ties on the smaller id.
            # Pinned entries are popped for good and stale ones
            # re-keyed, matching the reference's lazy invalidation; an
            # exhausted heap falls back to the smallest unpinned id.
            while heap:
                k, u = heap[0]
                if not cached[u] or pinned_mark[u] == t:
                    heappop(heap)
                elif k != key[u]:
                    heappop(heap)
                    heappush(heap, (key[u], u))
                else:
                    break
            else:
                u = cached.find(1)
                while u >= 0 and pinned_mark[u] == t:
                    u = cached.find(1, u + 1)
                if u < 0:
                    raise CacheError("no eviction candidate available")
        else:
            # Top fresh unpinned entry = min((key, v)), the reference
            # policies' scan.  Stale entries are dropped; fresh pinned
            # ones are set aside and re-pushed so they stay eligible.
            aside = None
            while True:
                if not heap:
                    raise CacheError("no eviction candidate available")
                k, u = heap[0]
                if not cached[u] or key[u] != k:
                    heappop(heap)
                elif pinned_mark[u] == t:
                    if aside is None:
                        aside = []
                    aside.append(heappop(heap))
                else:
                    break
            if aside:
                for entry in aside:
                    heappush(heap, entry)
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
        start = indptr[t]
        end = indptr[t + 1]
        pinned_mark[v] = t
        for i in range(start, end):
            pinned_mark[ops[i]] = t
        # Load missing operands.  A recency policy keys a load (and,
        # for LRU, a hit) with the step; Belady keys operands after the
        # compute.
        for i in range(start, end):
            p = ops[i]
            if cached[p]:
                if refresh_on_use and key[p] != t:
                    key[p] = t
                    heappush(heap, (t, p))
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
                heappush(heap, (t, p))
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
        k = -first_use[v] if belady else t
        key[v] = k
        heappush(heap, (k, v))
        if n_cached > peak:
            peak = n_cached
        for i in range(start, end):
            p = ops[i]
            if belady:
                # One entry per operand use, pushed after the compute so
                # that this step's destructive pinned pops cannot drop it.
                k = -occ_next[i]
                key[p] = k
                heappush(heap, (k, p))
            uses_left[p] -= 1
        if io_trace is not None:
            io_trace.append(reads + writes)

    # Drain: outputs still dirty must reach slow memory.
    for u in range(n):
        if dirty[u] and is_output[u] and not output_written[u]:
            if events is not None:
                events("store", u)
            writes += 1
            output_writes += 1
            output_written[u] = 1

    return (reads, writes, input_reads, spill_reads, spill_writes,
            output_writes, peak, evictions)
