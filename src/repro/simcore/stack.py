"""LRU and Belady at every cache size from one pass over a plan.

Step ``t`` *touches* its distinct operands and its result, sorted by id:
the order in which the simulation loop's recency queue appends them.  A
*reuse touch* of ``x`` at step ``t`` has a previous touch at step
``p < t``; it hits iff ``x`` stayed cached over the interior steps
``p < s < t``.  Both policies are stack algorithms on this machine
(Mattson, Gecsei, Slutz and Traiger, IBM Systems Journal 9(2), 1970):
what a cache of size ``M`` holds after a step, a cache of size ``M + 1``
holds too.  So each reuse touch has a *hit threshold*, the smallest
``M`` at which it hits, and every counter follows from the thresholds:

- reads: the reuse touches that miss at ``M``, plus every input's first
  read; ``input_reads`` is the same count over inputs;
- spill writes: the computed non-outputs with a missed reuse.  A dirty,
  live vertex is written at its first eviction, which comes before its
  first miss; later evictions are clean;
- output writes: one per scheduled output (at its first eviction or in
  the final drain);
- peak ``min(M, D)``, and evictions ``reads + T - min(M, D)``, ``D``
  being the number of distinct vertices touched: every load and compute
  adds one value, and the cache ends holding ``min(M, D)``.

**LRU: stack distances.**  Every vertex sits in one recency order at
the position of its last touch, and the LRU cache of size ``M`` holds
its top ``min(M, D)`` entries: the step's touches are pinned and go on
top, and evictions take the bottom-most unpinned entry.  For a touch
with previous touch ``P`` (a position in the touch sequence) at a step
whose first touch is at ``B``, the vertex's depth in that order when the
step starts is its *stack distance*

    d = #{distinct vertices touched in (P, B)}
      = (B - P - 1) - #{touches j < B with P < prev[j]},

and the touch misses iff ``d >= M``.  The count is one offline 2-D
dominance count over all touches, done by a wavelet matrix over the
reuse touches, built and queried one bit level at a time in
``O(N log N)`` numpy work.

**Belady: intervals.**  A reuse touch is an interval over its interior
steps, and Belady keeps exactly the intervals the OPTgen greedy keeps
(Jain and Lin, ISCA 2016): take them in order and accept one iff every
interior step ``s`` still has ``w_s + 1 + (accepted intervals over s)
<= M``, where ``w_s`` is step ``s``'s distinct touches, the values it
pins.  The order is ``(t ascending, x descending)``, the reverse of
Belady's victim order: the loop evicts the furthest next use first,
ties on the smaller id.  Values with no next use need no interval:
their key is the smallest, so Belady evicts them before any live one.

- *Inclusion.*  The cache sizes run in increasing order, each seeded
  with the previous size's kept intervals, since Belady is a stack
  algorithm here.  Seeding gives the greedy's own answer: a kept
  interval stays feasible with any subset of the larger size's kept
  set, and a rejected one stays infeasible with any superset.
- *The free-slot stack.*  The intervals not yet kept run through a
  stack of the suffix minima of free slots ``M - w_s - occupancy`` over
  the steps before ``t``: a record at step ``s`` holds the minimum over
  ``[s, t)``, records strictly increase from bottom to top, so there are
  at most ``M + 1`` of them.  They are stored as gaps between neighbours.
  A candidate finds its first interior record by one ``bisect``; every
  record above the bottom one holds at least one free slot, so only the
  bottom record can refuse it, and an accept lowers one gap, merging two
  records when that gap reaches zero.

"An LRU hit is a Belady hit" is false on this machine, because steps
pin different numbers of values: over Strassen, Winograd and
classical(2) at ``r = 3`` (recursive, rank order, three random product
and three random topological orders; ``M`` from the widest step to 69),
58 (touch, ``M``) pairs in 5 of the 24 schedules hit under LRU and miss
under Belady, 3 of them in Winograd's random product order seed 1 at
``M = 7``.  A pass that seeded Belady with LRU's hits would undercount
its reads there.

The derivations assume each scheduled vertex is a distinct non-input
whose operands are inputs or computed at earlier steps, which
:func:`repro.schedules.validate_schedule` guarantees.  An unvalidated
plan is checked in one linear pass and, if it fails, left to the loop,
which raises its own :class:`~repro.errors.ScheduleError`.  A cache
below the widest step gets the loop's :class:`CacheError`.  FIFO,
``io_trace`` runs and the pebble-game ``events`` replay keep the loop:
they need per-step state that neither pass gives.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import CacheError

__all__ = ["lru_counts", "belady_counts"]


def lru_counts(plan, is_input, is_output, cache_sizes):
    """LRU's raw count tuples over ``plan``, one per cache size, from
    one stack-distance pass.

    Each entry equals ``simulate_py(plan, is_input, is_output, M, 0)``;
    for an ``M`` below the widest step it is the loop's
    :class:`CacheError`, unraised.  Returns None for an unvalidated plan
    outside the derivation, which only the loop runs.
    """
    Ms = [int(M) for M in cache_sizes]
    if not Ms or plan.n_steps == 0:
        return [(0,) * 8 for _ in Ms]
    touches = _touches(plan, is_input)
    if touches is None:
        return None
    vertex, prev, starts = touches
    width = np.diff(starts).astype(np.int32)
    N = len(vertex)
    reuse = prev >= 0
    vq = vertex[reuse]
    first_inputs = int(np.count_nonzero(is_input[vertex[~reuse]]))
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
    return _tally(plan, is_input, is_output, Ms, vq, d, first_inputs,
                  N - len(d), int(width.max()))


def belady_counts(plan, is_input, is_output, cache_sizes):
    """Belady's raw count tuples over ``plan``, one per cache size, from
    one interval pass.

    Each entry equals ``simulate_py(plan, is_input, is_output, M, 2)``;
    for an ``M`` below the widest step it is the loop's
    :class:`CacheError`, unraised.  Returns None for an unvalidated plan
    outside the derivation, which only the loop runs.
    """
    Ms = [int(M) for M in cache_sizes]
    if not Ms or plan.n_steps == 0:
        return [(0,) * 8 for _ in Ms]
    touches = _touches(plan, is_input)
    if touches is None:
        return None
    vertex, prev, starts = touches
    T = plan.n_steps
    width = np.diff(starts).astype(np.int32)
    N = len(vertex)
    step = np.repeat(np.arange(T, dtype=np.int32), width)
    # The greedy order, (t ascending, x descending): each step's touches
    # reversed, then the reuse touches among them.
    order = np.repeat((starts[:-1] + starts[1:] - 1).astype(np.int32), width)
    order -= np.arange(N, dtype=np.int32)
    order = order[prev[order] >= 0]
    first = prev < 0
    first_inputs = int(np.count_nonzero(is_input[vertex[first]]))
    distinct = int(np.count_nonzero(first))
    del first
    vq = vertex[order]
    del vertex
    hi = step[order]
    lo = step[prev[order]]
    lo += 1
    del step, prev, order
    wmax = int(width.max())
    # Every interval is kept at M >= D, so a larger M runs as D: the
    # thresholds stay int32 whatever M is.
    d = _hit_thresholds(lo, hi, width,
                        sorted({min(M, distinct) for M in Ms if M >= wmax}))
    del lo, hi
    return _tally(plan, is_input, is_output, Ms, vq, d, first_inputs,
                  distinct, wmax)


def _touches(plan, is_input):
    """The plan's touch sequence ``(vertex, prev, starts)``: each
    touch's vertex, the position of that vertex's previous touch (-1 for
    its first), and the position of each step's first touch (``T + 1``
    entries).  None for an unvalidated plan outside the derivation.

    Per-touch arrays are int32 but the two sort keys, and each is
    dropped once used: at n = 32 (334,515 touches) the LRU pass
    allocates at most ~12 MiB, against ~24 MiB for one loop run.
    """
    n = len(is_input)
    T = plan.n_steps
    sched = plan.schedule
    ops = plan.step_ops
    occ_step = np.repeat(np.arange(T, dtype=np.int32),
                         np.diff(plan.step_indptr))
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
    return vertex, prev, starts


def _tally(plan, is_input, is_output, Ms, vq, d, first_inputs, distinct,
           wmax):
    """The count tuples from the reuse touches' vertices ``vq`` and
    values ``d``, where a touch misses at ``M`` iff ``d >= M``."""
    T = plan.n_steps
    is_in = is_input[vq]
    d_all = np.sort(d)
    d_in = np.sort(d[is_in])
    spill = ~is_in & ~is_output[vq]
    maxd = np.full(len(is_input), -1, dtype=np.int32)
    np.maximum.at(maxd, vq[spill], d[spill])
    maxd.sort()
    del is_in, spill
    output_writes = int(np.count_nonzero(is_output[plan.schedule]))

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


def _hit_thresholds(lo, hi, width, Ms):
    """Each Belady interval's smallest ``M`` in ``Ms`` (ascending, none
    below ``width.max()``) at which it is kept, minus one; the largest
    ``M`` for an interval kept at none.  Intervals ``[lo, hi)`` of interior
    steps come in greedy order."""
    d = np.full(len(lo), max(Ms, default=0), dtype=np.int32)
    # An empty interior is a hit at every M.
    kept = lo >= hi
    d[kept] = 0
    load = width.astype(np.int32)
    for M in Ms:
        cand = np.flatnonzero(~kept)
        if not len(cand):
            break
        take = cand[_greedy(lo[cand], hi[cand], (M - load).tolist())]
        kept[take] = True
        d[take] = M - 1
        # Seed the next M with the intervals kept at this one.
        cover = np.bincount(lo[take], minlength=len(load) + 1)
        cover -= np.bincount(hi[take], minlength=len(load) + 1)
        load += np.cumsum(cover[:-1], dtype=np.int32)
    return d


#: Intervals per chunk of :func:`_greedy`.
_CHUNK = 1 << 16


def _greedy(lo, hi, free):
    """The OPTgen greedy over intervals ``[lo[i], hi[i])`` (non-empty,
    ``hi`` non-decreasing) and free slots per step; returns a mask of the
    accepted intervals.  ``pos``/``gap`` is the free-slot stack of the
    module docstring: record ``k`` at step ``pos[k]`` holds the minimum
    free slots over ``[pos[k], t)``, ``gap[k]`` above record ``k - 1``'s
    (the bottom's gap is its value).  The intervals are read as Python
    ints a chunk at a time, which bounds the lists' memory."""
    pos: list[int] = []
    gap: list[int] = []
    top = 0
    pushed = 0
    accepted = bytearray(len(lo))
    for c in range(0, len(lo), _CHUNK):
        for i, a, t in zip(range(c, c + _CHUNK), lo[c:c + _CHUNK].tolist(),
                           hi[c:c + _CHUNK].tolist()):
            for s in range(pushed, t):
                f = free[s]
                while pos and top >= f:
                    top -= gap.pop()
                    pos.pop()
                gap.append(f - top)
                pos.append(s)
                top = f
            pushed = t
            k = bisect_left(pos, a)
            if k == 0 and not gap[0]:
                continue
            accepted[i] = 1
            top -= 1
            gap[k] -= 1
            if k and not gap[k]:
                del pos[k - 1]
                del gap[k]
    return np.frombuffer(accepted, dtype=bool)


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
