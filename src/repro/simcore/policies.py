"""The columnar core's machine step: one implementation of the
two-level machine for every eviction policy.

:func:`_step` plays one scheduled computation — pin, load missing
operands, evict on demand, write back dirty values that are still live,
compute — and :func:`_drain_outputs` finishes a run.  A policy is two
things: the key a touch gives a vertex (the step of its last touch for
LRU, its insertion step for FIFO, ``T - next_use`` for Belady), and the
victim pop in :func:`_evict`.  Both run over lazy int64-encoded
min-heaps on flat arrays, shared through :mod:`repro.simcore.grid` by
every consumer (the pebble-game executor, and indirectly the trace
engine, whose stamp-heap recency rule is the same decision procedure at
line granularity).

Bit-for-bit identity with the golden reference
----------------------------------------------
The kernels must be indistinguishable from the retained reference
simulator (``tests/pebbling/_reference.py``) on every ``IOResult``
field, the eviction count and the cumulative ``io_trace``.  Both order
evictions by ``(key, v)``: here each heap entry is encoded into a
single ``int64``, ``key * n + v``, which orders exactly like the tuple
because ``v < n``:

- recency: ``key`` is a step, so entries order like ``(stamp, v)``;
- belady: ``key = T - next_use`` — ``T`` is the "never used again"
  sentinel, so the key ascends as ``-next_use`` does and entries order
  exactly like ``(-next_use, v)``.

A binary min-heap over a total order pops the same value sequence
regardless of its internal layout, so the victim choices (and hence
every downstream count) match the Python loop exactly — its Belady
``heapq`` holds the same ints, and its LRU/FIFO recency queue is kept
in the same ``(stamp, v)`` order; the golden equivalence and hypothesis
suites assert this across schedules x policies x cache sizes.

Layout
------
Every simulation's mutable state is *rows*: one slot axis per state kind
(``cached``/``dirty``/… over vertices, the heap, the scalar vector
``sc``).  A single configuration owns one row of each;
:mod:`repro.simcore.grid` stacks the rows into ``(config, slot)``
matrices and steps thousands of configurations in lockstep through
:func:`_step`, the *only* implementation of the machine on the kernel
path.
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
# eight slots match the count tuple the Python loop returns.
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
# The machine step.  ``key[v]`` is the key of v's one fresh heap entry
# ``key[v] * n + v``: the step of its last touch (LRU) or its insertion
# step (FIFO); Belady's entries are keyed ``T - next_use`` and need no
# ``key`` row (see :func:`_evict`).  State travels in the
# arrays plus the ``sc`` scalar vector (numba cannot pass scalars by
# reference).  ``simulate_py`` in the Python loop is the same machine
# step over a different recency structure: a queue in ``(stamp, v)``
# order for LRU and FIFO, a ``heapq`` of these encoded ints for Belady.
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _evict(heap, sc, cached, dirty, in_slow, output_written, uses_left,
           is_output, key, pinned, aside, t, n, belady):
    """One eviction; returns 0, or -1 with ``sc[STATUS]`` set.

    Recency policies drop stale entries and set fresh pinned ones aside
    (re-pushed after the pop; the Python loop's recency queue leaves
    them in place).  Belady pops entries of evicted or pinned vertices
    destructively and stops at the first other one.
    """
    u = np.int64(-1)
    if belady:
        # A vertex's key, T - next_use, only falls over its life, so its
        # stale entries sit behind its fresh one; and every vertex pinned
        # at step t is pushed again at the end of step t, so a cached
        # unpinned vertex always has its fresh entry in the heap.  The
        # first entry of such a vertex is therefore fresh, and an
        # exhausted heap means no victim.
        while True:
            if sc[HEAPN] == 0:
                sc[STATUS] = STATUS_NO_VICTIM
                return -1
            u = heap[0] % n
            if cached[u] == 1 and pinned[u] != t:
                break
            sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
    else:
        n_aside = 0
        while True:
            if sc[HEAPN] == 0:
                sc[STATUS] = STATUS_NO_VICTIM
                return -1
            e = heap[0]
            u = e % n
            if cached[u] == 0 or key[u] != e // n:
                sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
            elif pinned[u] == t:
                aside[n_aside] = e
                n_aside += 1
                sc[HEAPN] = _heap_pop(heap, sc[HEAPN])
            else:
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
def _step(v, t, start, end, ops, occ_next, first_use, n, T, cache_size,
          policy, is_input, is_output, cached, dirty, in_slow,
          output_written, uses_left, key, pinned, heap, aside, sc):
    """One scheduled computation of one configuration (policy codes:
    0 = LRU, 1 = FIFO, 2 = Belady); returns 0, or -1 with ``sc[STATUS]``
    set.  All state arguments are 1-D rows: a single configuration's
    slice of the grid's ``(config, slot)`` matrices."""
    belady = policy == 2
    refresh_on_use = policy == 0
    pinned[v] = t
    for i in range(start, end):
        pinned[ops[i]] = t
    # Load missing operands.  A recency policy keys a load (and, for
    # LRU, a hit) with the step; Belady keys operands after the compute.
    for i in range(start, end):
        p = ops[i]
        if cached[p] == 1:
            if refresh_on_use and key[p] != t:
                key[p] = t
                sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + p)
            continue
        if in_slow[p] == 0:
            sc[STATUS] = STATUS_OPERAND_MISSING
            sc[ERR_A] = p
            sc[ERR_B] = v
            return -1
        while sc[NCACHED] >= cache_size:
            if _evict(heap, sc, cached, dirty, in_slow, output_written,
                      uses_left, is_output, key, pinned, aside, t, n,
                      belady) < 0:
                return -1
        cached[p] = 1
        sc[NCACHED] += 1
        if not belady:
            key[p] = t
            sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + p)
        sc[READS] += 1
        if is_input[p] == 1:
            sc[INPUT_READS] += 1
        else:
            sc[SPILL_READS] += 1
    # Make room for the result and compute.
    while sc[NCACHED] >= cache_size:
        if _evict(heap, sc, cached, dirty, in_slow, output_written,
                  uses_left, is_output, key, pinned, aside, t, n,
                  belady) < 0:
            return -1
    if cached[v] == 0:
        cached[v] = 1
        sc[NCACHED] += 1
    dirty[v] = 1
    if belady:
        sc[HEAPN] = _heap_push(heap, sc[HEAPN], (T - first_use[v]) * n + v)
    else:
        key[v] = t
        sc[HEAPN] = _heap_push(heap, sc[HEAPN], t * n + v)
    if sc[NCACHED] > sc[PEAK]:
        sc[PEAK] = sc[NCACHED]
    for i in range(start, end):
        p = ops[i]
        if belady:
            # One entry per operand use, pushed after the compute so
            # that this step's destructive pinned pops cannot drop it.
            sc[HEAPN] = _heap_push(heap, sc[HEAPN], (T - occ_next[i]) * n + p)
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
