"""Pure-Python fallback loops of the simulation core.

The Python specialisation of the :mod:`repro.simcore.policies` step
bodies, not a second design: the same recency-stamped LRU/FIFO and
next-use keyed Belady rules over a
:class:`~repro.simcore.plan.SchedulePlan`, with state held in the forms
the interpreter is fast on — bytearray bitmaps, per-vertex stamp/key
lists and lazy heaps of tuples.  Running the kernel code itself under
the interpreter (the ``interp`` mode) is about ten times slower (E9's
r = 4 recursive grid, 8 configurations: ~6 s against ~0.6 s on a
2-vCPU host), which is why the fallback keeps these loops.  Victim
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
    the pure-Python loops; returns the raw count tuple ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)``.  Policy codes: 0 = LRU, 1 = FIFO, 2 = Belady."""
    n = len(is_input_arr)
    count_path("off")
    if policy_code == 2:
        return _py_simulate_belady(
            plan, is_input_arr, is_output_arr, n, cache_size, io_trace,
            events,
        )
    return _py_simulate_recency(
        plan, is_input_arr, is_output_arr, n, cache_size, policy_code == 0,
        io_trace, events,
    )


def _py_simulate_recency(
    plan, is_input_arr, is_output_arr, n, cache_size, refresh_on_use,
    io_trace, events=None,
):
    plan.ensure_lists()
    sched = plan._sched_l
    indptr = plan._indptr_l
    ops = plan._ops_l
    uses_left = list(plan._uses_l)
    is_input = is_input_arr.tolist()
    is_output = is_output_arr.tolist()
    cached = bytearray(n)
    dirty = bytearray(n)
    in_slow = bytearray(np.ascontiguousarray(is_input_arr).tobytes())
    output_written = bytearray(n)
    stamp = [0] * n          # last touch (LRU) / insertion time (FIFO)
    pinned_mark = [-1] * n
    heap: list[tuple[int, int]] = []

    reads = writes = input_reads = spill_reads = spill_writes = 0
    output_writes = 0
    peak = n_cached = evictions = 0
    t = 0

    def evict_one() -> None:
        # Lazy-heap victim selection: the top fresh, cached,
        # unpinned entry is min((stamp, v)) over the candidate set —
        # exactly the reference policies' scan.  Fresh entries of
        # pinned vertices are set aside and re-pushed, so they stay
        # eligible for later evictions.
        nonlocal writes, spill_writes, output_writes, evictions, n_cached
        aside = None
        while True:
            if not heap:
                raise CacheError("no eviction candidate available")
            tm, u = heap[0]
            if not cached[u] or stamp[u] != tm:
                heappop(heap)       # stale: evicted or re-touched
                continue
            if pinned_mark[u] == t:
                if aside is None:
                    aside = []
                aside.append(heappop(heap))
                continue
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
        # Load missing operands.
        for i in range(start, end):
            p = ops[i]
            if cached[p]:
                if refresh_on_use and stamp[p] != t:
                    stamp[p] = t
                    heappush(heap, (t, p))
            else:
                if not in_slow[p]:
                    raise ScheduleError(
                        f"operand {p} of {v} is neither cached nor "
                        "in slow memory"
                    )
                while n_cached >= cache_size:
                    evict_one()
                if events is not None:
                    events("load", p)
                cached[p] = 1
                n_cached += 1
                stamp[p] = t
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
        stamp[v] = t
        heappush(heap, (t, v))
        if n_cached > peak:
            peak = n_cached
        for i in range(start, end):
            uses_left[ops[i]] -= 1
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


def _py_simulate_belady(
    plan, is_input_arr, is_output_arr, n, cache_size, io_trace, events=None
):
    plan.ensure_lists()
    sched = plan._sched_l
    indptr = plan._indptr_l
    ops = plan._ops_l
    occ_next = plan._occ_next_l
    first_use = plan._first_use_l
    uses_left = list(plan._uses_l)
    is_input = is_input_arr.tolist()
    is_output = is_output_arr.tolist()
    cached = bytearray(n)
    dirty = bytearray(n)
    in_slow = bytearray(np.ascontiguousarray(is_input_arr).tobytes())
    output_written = bytearray(n)
    # Current next-use key per vertex; plan.n_steps is the "never
    # used again" sentinel (sorts exactly like the reference's +inf:
    # every real next use is a smaller step index).
    key = [0] * n
    pinned_mark = [-1] * n
    # Max-heap entries (-next_use, v): the top entry is the furthest
    # next use, ties broken on the smaller vertex id — the reference
    # BeladyPolicy's order.  Pops are destructive for non-candidate
    # entries, matching the reference's lazy invalidation exactly.
    heap: list[tuple[int, int]] = []

    reads = writes = input_reads = spill_reads = spill_writes = 0
    output_writes = 0
    peak = n_cached = evictions = 0
    t = 0

    def evict_one() -> None:
        nonlocal writes, spill_writes, output_writes, evictions, n_cached
        u = -1
        while heap:
            negn, u = heap[0]
            if not cached[u] or pinned_mark[u] == t:
                heappop(heap)
                continue
            cur = key[u]
            if -negn != cur:
                heappop(heap)       # stale: re-key and retry
                heappush(heap, (-cur, u))
                continue
            break
        else:
            # Heap exhausted (candidate entries were consumed while
            # pinned): deterministic fallback, smallest vertex id.
            u = cached.find(1)
            while u >= 0 and pinned_mark[u] == t:
                u = cached.find(1, u + 1)
            if u < 0:
                raise CacheError("no eviction candidate available")
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
        for i in range(start, end):
            p = ops[i]
            if not cached[p]:
                if not in_slow[p]:
                    raise ScheduleError(
                        f"operand {p} of {v} is neither cached nor "
                        "in slow memory"
                    )
                while n_cached >= cache_size:
                    evict_one()
                if events is not None:
                    events("load", p)
                cached[p] = 1
                n_cached += 1
                reads += 1
                if is_input[p]:
                    input_reads += 1
                else:
                    spill_reads += 1
        while n_cached >= cache_size:
            evict_one()
        if events is not None:
            events("compute", v)
        if not cached[v]:
            cached[v] = 1
            n_cached += 1
        dirty[v] = 1
        nxt = first_use[v]
        key[v] = nxt
        heappush(heap, (-nxt, v))
        if n_cached > peak:
            peak = n_cached
        # Refresh: exactly one heap entry per operand use, pushed
        # *after* the compute so it survives this step's evictions
        # (while pinned, an operand's entries can be destructively
        # popped — the post-compute push is the one that matters,
        # and is what the reference's refresh ``on_use`` provides).
        for i in range(start, end):
            p = ops[i]
            nxt = occ_next[i]
            key[p] = nxt
            heappush(heap, (-nxt, p))
            uses_left[p] -= 1
        if io_trace is not None:
            io_trace.append(reads + writes)

    for u in range(n):
        if dirty[u] and is_output[u] and not output_written[u]:
            if events is not None:
                events("store", u)
            writes += 1
            output_writes += 1
            output_written[u] = 1

    return (reads, writes, input_reads, spill_reads, spill_writes,
            output_writes, peak, evictions)
