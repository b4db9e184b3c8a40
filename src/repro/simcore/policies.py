"""The columnar core's single policy implementation.

LRU, FIFO and Belady eviction as lazy int64-encoded min-heaps over flat
arrays — lifted from the PR-8 pebbling kernels and shared, through
:mod:`repro.simcore.grid`, by every consumer (the pebble-game executor,
and indirectly the trace engine, whose stamp-heap recency rule is the
same decision procedure at line granularity).

Bit-for-bit identity with the golden reference
----------------------------------------------
The kernels must be indistinguishable from the retained reference
simulator (``tests/pebbling/_reference.py``) on every ``IOResult``
field, the eviction count and the cumulative ``io_trace``.  The
pure-Python loops achieve this with lazy min-heaps of tuples; here each
heap entry is encoded into a single ``int64``:

- recency: ``stamp * n + v`` — orders exactly like the tuple
  ``(stamp, v)`` because ``v < n``;
- belady: ``(T - next_use) * n + v`` — ``T`` is the "never used again"
  sentinel, so ``T - next_use`` ascends as ``-next_use`` does and the
  encoding orders exactly like ``(-next_use, v)``.

A binary min-heap over a total order pops the same value sequence
regardless of its internal layout, so the victim choices (and hence
every downstream count) match the Python loops exactly; the golden
equivalence and hypothesis suites assert this across schedules x
policies x cache sizes.

Layout
------
Every simulation's mutable state is *rows*: one slot axis per state kind
(``cached``/``dirty``/… over vertices, the heap, the scalar vector
``sc``).  A single configuration owns one row of each;
:mod:`repro.simcore.grid` stacks the rows into ``(config, slot)``
matrices and steps thousands of configurations in lockstep through the
per-step bodies below (``_recency_step`` / ``_belady_step``), which are
the *only* implementation of the eviction rules on the kernel path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CacheError
from repro.simcore.dispatch import njit

__all__ = [
    "POLICY_CODES", "policy_code",
    "READS", "WRITES", "INPUT_READS", "SPILL_READS", "SPILL_WRITES",
    "OUTPUT_WRITES", "PEAK", "EVICTIONS", "NCACHED", "HEAPN", "STATUS",
    "ERR_A", "ERR_B", "SC_LEN",
    "STATUS_OK", "STATUS_OPERAND_MISSING", "STATUS_NO_VICTIM",
]

#: Policy name -> the integer code every simulation path dispatches on.
POLICY_CODES = {"lru": 0, "fifo": 1, "belady": 2}


def policy_code(policy: str) -> int:
    """The code of an eviction policy name; raises :class:`CacheError`
    for a name no path implements."""
    code = POLICY_CODES.get(policy)
    if code is None:
        raise CacheError(f"unknown eviction policy {policy!r}")
    return code

# ----------------------------------------------------------------------
# Scalar-state layout (one int64 vector per simulation, stacked as one
# matrix row per configuration by the batched grid kernel).  The first
# eight slots match the count tuple the Python loops return.
# ----------------------------------------------------------------------

READS = 0
WRITES = 1
INPUT_READS = 2
SPILL_READS = 3
SPILL_WRITES = 4
OUTPUT_WRITES = 5
PEAK = 6
EVICTIONS = 7
NCACHED = 8
HEAPN = 9
STATUS = 10
ERR_A = 11
ERR_B = 12
SC_LEN = 13

STATUS_OK = 0
#: ``ERR_A`` = the operand, ``ERR_B`` = the vertex using it.
STATUS_OPERAND_MISSING = 1
STATUS_NO_VICTIM = 2


# ----------------------------------------------------------------------
# Flat binary min-heap (int64 keys, capacity preallocated by callers).
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _heap_push(heap, size, val):
    heap[size] = val
    i = size
    while i > 0:
        parent = (i - 1) >> 1
        if heap[i] < heap[parent]:
            tmp = heap[i]
            heap[i] = heap[parent]
            heap[parent] = tmp
        else:
            break
        i = parent
    return size + 1


@njit(cache=True, nogil=True)
def _heap_pop(heap, size):
    """Remove the root; returns the new size."""
    size -= 1
    heap[0] = heap[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        child = left
        right = left + 1
        if right < size and heap[right] < heap[left]:
            child = right
        if heap[child] < heap[i]:
            tmp = heap[i]
            heap[i] = heap[child]
            heap[child] = tmp
            i = child
        else:
            break
    return size


# ----------------------------------------------------------------------
# Eviction helpers.  These are line-for-line transcriptions of
# ``evict_one`` in the Python loops; state travels in the arrays plus
# the ``sc`` scalar vector (numba cannot pass scalars by reference).
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _recency_evict(heap, sc, cached, dirty, in_slow, output_written,
                   uses_left, is_output, stamp, pinned, aside, t, n):
    """One recency-policy eviction; returns 0, or -1 with ``sc[STATUS]``
    set.  Fresh entries of pinned vertices are set aside and re-pushed,
    exactly like the Python loop's ``aside`` list."""
    n_aside = 0
    u = np.int64(-1)
    while True:
        if sc[HEAPN] == 0:
            sc[STATUS] = STATUS_NO_VICTIM
            return -1
        e = heap[0]
        tm = e // n
        u = e % n
        if cached[u] == 0 or stamp[u] != tm:
            sc[HEAPN] = _heap_pop(heap, sc[HEAPN])  # stale entry
            continue
        if pinned[u] == t:
            aside[n_aside] = e
            n_aside += 1
            sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
            continue
        break
    for i in range(n_aside):
        sc[HEAPN] = _heap_push(heap, sc[HEAPN], aside[i])
    sc[EVICTIONS] += 1
    cached[u] = 0
    sc[NCACHED] -= 1
    if dirty[u] == 1:
        if uses_left[u] > 0 or (is_output[u] == 1 and output_written[u] == 0):
            sc[WRITES] += 1
            in_slow[u] = 1
            if is_output[u] == 1:
                sc[OUTPUT_WRITES] += 1
                output_written[u] = 1
            else:
                sc[SPILL_WRITES] += 1
        dirty[u] = 0
    return 0


@njit(cache=True, nogil=True)
def _belady_evict(heap, sc, cached, dirty, in_slow, output_written,
                  uses_left, is_output, key, pinned, t, n, T):
    """One Belady eviction (max next-use first, ties on smaller vertex
    id); destructive pops for non-candidates and re-keyed pushes for
    stale entries match the reference policy's lazy invalidation."""
    u = np.int64(-1)
    found = False
    while sc[HEAPN] > 0:
        e = heap[0]
        u = e % n
        nxt = T - e // n
        if cached[u] == 0 or pinned[u] == t:
            sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
            continue
        cur = key[u]
        if nxt != cur:
            sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
            sc[HEAPN] = _heap_push(heap, sc[HEAPN], (T - cur) * n + u)
            continue
        found = True
        break
    if not found:
        # Heap exhausted (candidate entries were destructively popped
        # while pinned): deterministic fallback, smallest cached
        # unpinned vertex id.
        u = np.int64(-1)
        for w in range(n):
            if cached[w] == 1 and pinned[w] != t:
                u = w
                break
        if u < 0:
            sc[STATUS] = STATUS_NO_VICTIM
            return -1
    sc[EVICTIONS] += 1
    cached[u] = 0
    sc[NCACHED] -= 1
    if dirty[u] == 1:
        if uses_left[u] > 0 or (is_output[u] == 1 and output_written[u] == 0):
            sc[WRITES] += 1
            in_slow[u] = 1
            if is_output[u] == 1:
                sc[OUTPUT_WRITES] += 1
                output_written[u] = 1
            else:
                sc[SPILL_WRITES] += 1
        dirty[u] = 0
    return 0


# ----------------------------------------------------------------------
# Per-step bodies: one scheduled computation of one configuration.
# These are the shared core — the per-config kernels and the lockstep
# grid kernel both step through them, so there is exactly one
# implementation of each policy's simulation rule on the kernel path.
# All state arguments are 1-D rows (a single config's slice of the
# grid's (config, slot) matrices).
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _recency_step(v, t, start, end, ops, n, cache_size, refresh_on_use,
                  is_input, is_output, cached, dirty, in_slow,
                  output_written, uses_left, stamp, pinned, heap, aside, sc):
    """One LRU/FIFO step; returns 0, or -1 with ``sc[STATUS]`` set."""
    pinned[v] = t
    for i in range(start, end):
        pinned[ops[i]] = t
    # Load missing operands.
    for i in range(start, end):
        p = ops[i]
        if cached[p] == 1:
            if refresh_on_use and stamp[p] != t:
                stamp[p] = t
                sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + p)
        else:
            if in_slow[p] == 0:
                sc[STATUS] = STATUS_OPERAND_MISSING
                sc[ERR_A] = p
                sc[ERR_B] = v
                return -1
            while sc[NCACHED] >= cache_size:
                if _recency_evict(heap, sc, cached, dirty, in_slow,
                                  output_written, uses_left, is_output,
                                  stamp, pinned, aside, t, n) < 0:
                    return -1
            cached[p] = 1
            sc[NCACHED] += 1
            stamp[p] = t
            sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + p)
            sc[READS] += 1
            if is_input[p] == 1:
                sc[INPUT_READS] += 1
            else:
                sc[SPILL_READS] += 1
    # Make room for the result and compute.
    while sc[NCACHED] >= cache_size:
        if _recency_evict(heap, sc, cached, dirty, in_slow,
                          output_written, uses_left, is_output,
                          stamp, pinned, aside, t, n) < 0:
            return -1
    if cached[v] == 0:
        cached[v] = 1
        sc[NCACHED] += 1
    dirty[v] = 1
    stamp[v] = t
    sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + v)
    if sc[NCACHED] > sc[PEAK]:
        sc[PEAK] = sc[NCACHED]
    for i in range(start, end):
        uses_left[ops[i]] -= 1
    return 0


@njit(cache=True, nogil=True)
def _belady_step(v, t, start, end, ops, occ_next, first_use, n, T,
                 cache_size, is_input, is_output, cached, dirty, in_slow,
                 output_written, uses_left, key, pinned, heap, sc):
    """One Belady step; returns 0, or -1 with ``sc[STATUS]`` set."""
    pinned[v] = t
    for i in range(start, end):
        pinned[ops[i]] = t
    for i in range(start, end):
        p = ops[i]
        if cached[p] == 0:
            if in_slow[p] == 0:
                sc[STATUS] = STATUS_OPERAND_MISSING
                sc[ERR_A] = p
                sc[ERR_B] = v
                return -1
            while sc[NCACHED] >= cache_size:
                if _belady_evict(heap, sc, cached, dirty, in_slow,
                                 output_written, uses_left, is_output,
                                 key, pinned, t, n, T) < 0:
                    return -1
            cached[p] = 1
            sc[NCACHED] += 1
            sc[READS] += 1
            if is_input[p] == 1:
                sc[INPUT_READS] += 1
            else:
                sc[SPILL_READS] += 1
    while sc[NCACHED] >= cache_size:
        if _belady_evict(heap, sc, cached, dirty, in_slow,
                         output_written, uses_left, is_output,
                         key, pinned, t, n, T) < 0:
            return -1
    if cached[v] == 0:
        cached[v] = 1
        sc[NCACHED] += 1
    dirty[v] = 1
    nxt = first_use[v]
    key[v] = nxt
    sc[HEAPN] = _heap_push(heap, sc[HEAPN], (T - nxt) * n + v)
    if sc[NCACHED] > sc[PEAK]:
        sc[PEAK] = sc[NCACHED]
    # Refresh: exactly one heap entry per operand use, pushed after
    # the compute so it survives this step's evictions.
    for i in range(start, end):
        p = ops[i]
        nxt = occ_next[i]
        key[p] = nxt
        sc[HEAPN] = _heap_push(heap, sc[HEAPN], (T - nxt) * n + p)
        uses_left[p] -= 1
    return 0


@njit(cache=True, nogil=True)
def _drain_outputs(n, is_output, dirty, output_written, sc):
    """Post-schedule drain: outputs still dirty must reach slow memory."""
    for u in range(n):
        if dirty[u] == 1 and is_output[u] == 1 and output_written[u] == 0:
            sc[WRITES] += 1
            sc[OUTPUT_WRITES] += 1
            output_written[u] = 1
