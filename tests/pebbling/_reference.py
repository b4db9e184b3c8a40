"""The pre-vectorisation executor and segment partitioner, kept verbatim
as the golden references for equivalence tests.

This is the set/dict-based simulator the array-backed core in
:mod:`repro.pebbling.executor` replaced; the golden tests run both over
schedules x policies x cache sizes and assert identical ``IOResult``
fields, eviction counts and ``io_trace`` prefixes.  Do not optimise
this file — its value is that it stays a line-by-line transcription of
the original semantics (including the original policy objects inlined
below, so changes to ``repro.pebbling.cache`` cannot mask an executor
regression).

:func:`reference_partition_schedule` is the per-vertex loop that
:func:`repro.pebbling.partition_schedule` replaced with a cumulative
sum over first-appearance credits.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import CacheError, PartitionError, ScheduleError
from repro.pebbling.executor import IOResult
from repro.pebbling.machine import check_cache_size

_INF = float("inf")


class _RefLRU:
    def __init__(self):
        self.last_touch: dict[int, int] = {}

    def on_insert(self, v, time):
        self.last_touch[v] = time

    def on_use(self, v, time):
        self.last_touch[v] = time

    def on_evict(self, v):
        self.last_touch.pop(v, None)

    def choose_victim(self, candidates):
        return min(candidates, key=lambda v: (self.last_touch[v], v))


class _RefFIFO:
    def __init__(self):
        self.inserted_at: dict[int, int] = {}

    def on_insert(self, v, time):
        self.inserted_at[v] = time

    def on_use(self, v, time):
        pass

    def on_evict(self, v):
        self.inserted_at.pop(v, None)

    def choose_victim(self, candidates):
        return min(candidates, key=lambda v: (self.inserted_at[v], v))


class _RefBelady:
    def __init__(self, use_times):
        self.use_times = use_times
        self.cursor: dict[int, int] = {}
        self.heap: list[tuple[float, int]] = []
        self.cached: set[int] = set()

    def _next_use(self, v, after):
        times = self.use_times.get(v, [])
        i = self.cursor.get(v, 0)
        while i < len(times) and times[i] <= after:
            i += 1
        self.cursor[v] = i
        return times[i] if i < len(times) else _INF

    def on_insert(self, v, time):
        self.cached.add(v)
        nxt = self._next_use(v, time)
        heapq.heappush(self.heap, (-nxt, v))

    def on_use(self, v, time):
        nxt = self._next_use(v, time)
        heapq.heappush(self.heap, (-nxt, v))

    def on_evict(self, v):
        self.cached.discard(v)

    def choose_victim(self, candidates):
        while self.heap:
            neg_next, v = self.heap[0]
            if v not in candidates:
                heapq.heappop(self.heap)
                continue
            times = self.use_times.get(v, [])
            i = self.cursor.get(v, 0)
            current = times[i] if i < len(times) else _INF
            if -neg_next != current:
                heapq.heappop(self.heap)
                heapq.heappush(self.heap, (-current, v))
                continue
            return v
        if candidates:
            return min(candidates)
        raise CacheError("no eviction candidate available")


def _ref_make_policy(name, use_times=None):
    if name == "lru":
        return _RefLRU()
    if name == "fifo":
        return _RefFIFO()
    if name == "belady":
        return _RefBelady(use_times)
    raise CacheError(f"unknown eviction policy {name!r}")


def reference_run(
    cdag,
    schedule,
    cache_size: int,
    policy: str = "lru",
    io_trace: list[int] | None = None,
) -> tuple[IOResult, int]:
    """The original ``CacheExecutor._run`` (sets, dicts, per-step
    ``predecessors(v).tolist()`` and the duplicated ``on_use`` per
    cached operand), returning ``(IOResult, evictions)``."""
    check_cache_size(cdag, cache_size)
    schedule = np.asarray(schedule, dtype=np.int64)

    is_output = np.zeros(cdag.n_vertices, dtype=bool)
    is_output[cdag.outputs()] = True
    is_input = cdag.in_degree() == 0

    uses_left = np.zeros(cdag.n_vertices, dtype=np.int64)
    use_times: dict[int, list[int]] = {}
    for t, v in enumerate(schedule.tolist()):
        for p in cdag.predecessors(v).tolist():
            uses_left[p] += 1
            use_times.setdefault(p, []).append(t)

    pol = _ref_make_policy(policy, use_times=use_times)

    cached: set[int] = set()
    dirty: set[int] = set()
    in_slow: set[int] = set(np.nonzero(is_input)[0].tolist())
    output_written: set[int] = set()

    reads = writes = input_reads = spill_reads = spill_writes = 0
    output_writes = 0
    peak = 0
    evictions = 0

    def evict(candidates: set[int]) -> None:
        nonlocal writes, spill_writes, output_writes, evictions
        evictions += 1
        victim = pol.choose_victim(candidates)
        cached.discard(victim)
        pol.on_evict(victim)
        if victim in dirty:
            live = uses_left[victim] > 0
            is_out = bool(is_output[victim])
            if live or (is_out and victim not in output_written):
                writes += 1
                in_slow.add(victim)
                if is_out:
                    output_writes += 1
                    output_written.add(victim)
                else:
                    spill_writes += 1
            dirty.discard(victim)

    for t, v in enumerate(schedule.tolist()):
        preds = cdag.predecessors(v).tolist()
        pinned = set(preds) | {v}
        for p in preds:
            if p not in cached:
                if p not in in_slow:
                    raise ScheduleError(
                        f"operand {p} of {v} is neither cached nor in "
                        "slow memory"
                    )
                while len(cached) >= cache_size:
                    evict(cached - pinned)
                cached.add(p)
                pol.on_insert(p, t)
                reads += 1
                if is_input[p]:
                    input_reads += 1
                else:
                    spill_reads += 1
            else:
                pol.on_use(p, t)
        while len(cached) >= cache_size:
            evict(cached - pinned)
        cached.add(v)
        dirty.add(v)
        pol.on_insert(v, t)
        peak = max(peak, len(cached))
        for p in preds:
            pol.on_use(p, t)
        for p in preds:
            uses_left[p] -= 1
        if io_trace is not None:
            io_trace.append(reads + writes)

    for v in sorted(dirty):
        if is_output[v] and v not in output_written:
            writes += 1
            output_writes += 1
            output_written.add(v)

    result = IOResult(
        cache_size=cache_size,
        policy=policy,
        reads=reads,
        writes=writes,
        input_reads=input_reads,
        spill_reads=spill_reads,
        spill_writes=spill_writes,
        output_writes=output_writes,
        peak_cache=peak,
    )
    return result, evictions


def reference_partition_schedule(cdag, schedule, counted_mask, threshold, meta=None):
    """Minimal segments with at least ``threshold`` counted vertices,
    crediting each counted vertex when its meta-vertex first appears."""
    schedule = np.asarray(schedule, dtype=np.int64)
    segments = []
    start = 0
    count = 0
    counted_seen = np.zeros(cdag.n_vertices, dtype=bool)
    for t, v in enumerate(schedule.tolist()):
        group = meta.members(int(meta.label[v])) if meta is not None else [v]
        for w in (int(x) for x in np.atleast_1d(group)):
            if counted_mask[w] and not counted_seen[w]:
                counted_seen[w] = True
                count += 1
        if count >= threshold:
            segments.append(schedule[start : t + 1])
            start = t + 1
            count = 0
    if start < len(schedule):
        segments.append(schedule[start:])
    if not segments:
        raise PartitionError("empty schedule cannot be partitioned")
    return segments
