"""LRU at every cache size from one stack-distance pass.

On this machine LRU is a stack algorithm (Mattson, Gecsei, Slutz and
Traiger, IBM Systems Journal 9(2), 1970).  Step ``t`` *touches* its
distinct operands and its result, sorted by id: the order in which the
fallback loop's recency queue appends them.  Every vertex sits in one
recency order at the position of its last touch.  After every step the
LRU cache of size ``M`` holds exactly the top ``min(M, D)`` entries of
that order, ``D`` being the number of distinct vertices touched so far:
the step's touches are pinned and go on top, and evictions take the
bottom-most unpinned entry.  So one pass over a plan gives the counts of
every ``M`` at once.

For an operand touch with previous touch ``P`` (a position in the touch
sequence) at a step whose first touch is at ``B``, the vertex's depth in
that order when the step starts is its *stack distance*

    d = #{distinct vertices touched in (P, B)}
      = (B - P - 1) - #{touches j < B with P < prev[j]},

and the touch misses iff ``d >= M``.  The count is one offline 2-D
dominance count over all touches, done here by a wavelet matrix over the
reuse touches, built and queried one bit level at a time in
``O(N log N)`` numpy work.  The counters follow per ``M``:

- reads: the touches with ``d >= M``, plus every input's first read;
  ``input_reads`` is the same count over inputs;
- spill writes: the computed non-outputs whose largest ``d`` is
  ``>= M``.  A dirty, live vertex is written at its first eviction,
  which comes before its first miss; later evictions are clean;
- output writes: one per scheduled output (at its first eviction or in
  the final drain);
- peak ``min(M, D)``, and evictions ``reads + T - min(M, D)``: every load
  and compute adds one value, and the cache ends holding ``min(M, D)``.

The derivation assumes each scheduled vertex is a distinct non-input
whose operands are inputs or computed at earlier steps, which
:func:`repro.schedules.validate_schedule` guarantees.  An unvalidated
plan is checked in one linear pass and, if it fails, left to the loop,
which raises its own :class:`~repro.errors.ScheduleError`.  A cache
below the widest step gets the loop's :class:`CacheError`.  FIFO and
Belady, ``io_trace`` runs and the pebble-game ``events`` replay keep
the loop: they need per-step state that stack distances do not give.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CacheError

__all__ = ["lru_counts"]


def lru_counts(plan, is_input, is_output, cache_sizes):
    """LRU's raw count tuples over ``plan``, one per cache size, from
    one stack-distance pass.

    Each entry equals ``simulate_py(plan, is_input, is_output, M, 0)``;
    for an ``M`` below the widest step it is the loop's
    :class:`CacheError`, unraised.  Returns None for an unvalidated plan
    outside the derivation, which only the loop runs.
    """
    Ms = [int(M) for M in cache_sizes]
    if not Ms:
        return []
    n = len(is_input)
    T = plan.n_steps
    sched = plan.schedule
    if T == 0:
        return [(0,) * 8 for _ in Ms]

    # Per-touch arrays are int32 but the two sort keys, and each is
    # dropped once used: at n = 32 (334,515 touches) the pass allocates
    # at most ~12 MiB, against ~24 MiB for one loop run.
    indptr = plan.step_indptr
    ops = plan.step_ops
    occ_step = np.repeat(np.arange(T, dtype=np.int32), np.diff(indptr))
    if not plan.validated and not _topological(sched, ops, occ_step,
                                               is_input, n):
        return None

    # The touch sequence: distinct (step, vertex) pairs in key order.
    n_occ = len(occ_step)
    key = np.empty(n_occ + T, dtype=np.int64)
    np.multiply(occ_step, np.int64(n), out=key[:n_occ])
    del occ_step
    key[:n_occ] += ops
    np.multiply(np.arange(T, dtype=np.int64), np.int64(n), out=key[n_occ:])
    key[n_occ:] += sched
    key.sort()
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    del keep
    starts = np.searchsorted(key, np.arange(T + 1, dtype=np.int64) * n)
    width = np.diff(starts).astype(np.int32)
    np.remainder(key, n, out=key)
    vertex = key.astype(np.int32)
    del key
    N = len(vertex)

    # prev[j]: the position of the previous touch of the same vertex,
    # from the touches sorted by (vertex, position).
    key = vertex.astype(np.int64)
    key *= N
    key += np.arange(N, dtype=np.int64)
    key.sort()
    same = key[1:] // N == key[:-1] // N
    np.remainder(key, N, out=key)
    pos = key.astype(np.int32)
    del key
    prev = np.full(N, -1, dtype=np.int32)
    prev[pos[1:][same]] = pos[:-1][same]
    del pos, same

    reuse = prev >= 0
    first_inputs = int(np.count_nonzero(is_input[vertex[~reuse]]))
    distinct = N - int(np.count_nonzero(reuse))
    vq = vertex[reuse]
    del vertex
    P = prev[reuse]
    del prev
    # Each reuse touch's step start B and the number of reuse touches
    # before B (the prefix its dominance count runs over).
    rank = np.zeros(N + 1, dtype=np.int32)
    np.cumsum(reuse, dtype=np.int32, out=rank[1:])
    B = np.repeat(starts[:-1].astype(np.int32), width)[reuse]
    del reuse
    prefix = rank[B]
    del rank
    d = B - P - 1
    del B
    # d <= B - P - 1, so a shorter gap than the smallest M hits at
    # every M and needs no count.
    ask = d >= min(Ms)
    d[ask] -= _count_at_least(P, P[ask] + 1, prefix[ask])
    del prefix, P, ask
    wmax = int(width.max())

    is_in = is_input[vq]
    d_all = np.sort(d)
    d_in = np.sort(d[is_in])
    spill = ~is_in & ~is_output[vq]
    maxd = np.full(n, -1, dtype=np.int32)
    np.maximum.at(maxd, vq[spill], d[spill])
    maxd.sort()
    del is_in, spill, vq, d
    output_writes = int(np.count_nonzero(is_output[sched]))

    out = []
    for M in Ms:
        if M < wmax:
            out.append(CacheError("no eviction candidate available"))
            continue
        reads = first_inputs + _at_least(d_all, M)
        input_reads = first_inputs + _at_least(d_in, M)
        spill_writes = _at_least(maxd, M)
        peak = min(M, distinct)
        out.append((reads, spill_writes + output_writes, input_reads,
                    reads - input_reads, spill_writes, output_writes, peak,
                    reads + T - peak))
    return out


def _topological(sched, ops, occ_step, is_input, n) -> bool:
    """Whether the schedule is distinct non-inputs and every operand is
    an input or computed at an earlier step (``occ_step`` is each
    operand occurrence's step)."""
    T = len(sched)
    if sched.min() < 0 or sched.max() >= n or is_input[sched].any():
        return False
    done = np.full(n, T, dtype=np.int32)
    done[sched] = np.arange(T, dtype=np.int32)
    if int(np.count_nonzero(done < T)) != T:
        return False
    return not (~is_input[ops] & (done[ops] >= occ_step)).any()


def _at_least(sorted_values, M: int) -> int:
    return len(sorted_values) - int(np.searchsorted(sorted_values, M))


def _count_at_least(values, x, prefix):
    """For each query ``i``: ``#{j < prefix[i] : values[j] >= x[i]}``.

    A wavelet matrix over ``values`` (non-negative), built and queried
    one bit level at a time from the top.  Each query follows the
    ``[lo, hi)`` range of the values whose higher bits equal its
    ``x``'s; at a level where ``x`` has a 0, the range's values with a 1
    there are the larger ones and are counted.
    """
    levels = int(max(values.max(initial=0), x.max(initial=0))).bit_length()
    lo = np.zeros_like(prefix)
    hi = prefix
    count = np.zeros_like(prefix)
    zeros_before = np.zeros(len(values) + 1, dtype=np.int32)
    for b in range(levels - 1, -1, -1):
        bit = ((values >> b) & 1).astype(bool)
        np.cumsum(~bit, dtype=np.int32, out=zeros_before[1:])
        n_zeros = int(zeros_before[-1])
        lo0 = zeros_before[lo]
        hi0 = zeros_before[hi]
        one = (x >> b) & 1 == 1
        count += np.where(one, 0, (hi - hi0) - (lo - lo0))
        # Follow x's bit: into the zeros' block, or into the ones'
        # block, which starts at n_zeros.
        lo = np.where(one, n_zeros + lo - lo0, lo0)
        hi = np.where(one, n_zeros + hi - hi0, hi0)
        del lo0, hi0, one
        if b:
            values = np.concatenate((values[~bit], values[bit]))
    return count + (hi - lo)
