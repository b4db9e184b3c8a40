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

    Each entry equals ``simulate_py(plan, is_input, is_output, M,
    "lru")``; for an ``M`` below the widest step it is the loop's
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
    del touches
    width = np.diff(starts)
    wmax = int(width.max())
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
    B = np.repeat(starts[:-1], width)[reuse]
    del reuse, starts, width
    prefix = rank[B]
    del rank
    d = B  # becomes B - P - 1, in place
    del B
    d -= P
    d -= 1
    # d <= B - P - 1, so a shorter gap than the smallest M hits at
    # every M: it needs no count and adds to no tally.
    distinct = N - len(d)
    ask = d >= min(Ms)
    vq = vq[ask]
    d = d[ask]
    y = P[ask]
    prefix = prefix[ask]
    del ask
    _subtract_greater(P, y, prefix, d)
    del P, y, prefix
    return _tally(plan, is_input, is_output, Ms, vq, d, first_inputs,
                  distinct, wmax)


def belady_counts(plan, is_input, is_output, cache_sizes):
    """Belady's raw count tuples over ``plan``, one per cache size, from
    one interval pass.

    Each entry equals ``simulate_py(plan, is_input, is_output, M,
    "belady")``; for an ``M`` below the widest step it is the loop's
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
    del touches
    T = plan.n_steps
    width = np.diff(starts)
    N = len(vertex)
    reuse = prev >= 0
    first_inputs = int(np.count_nonzero(is_input[vertex[~reuse]]))
    distinct = N - int(np.count_nonzero(reuse))
    # The greedy order, (t ascending, x descending): each step's touches
    # reversed, then the reuse touches among them.
    order = np.repeat(starts[:-1] + starts[1:] - 1, width)
    del starts
    order -= np.arange(N, dtype=np.int32)
    order = order[reuse[order]]
    del reuse
    vq = vertex[order]
    del vertex
    lo = prev[order]
    del prev
    # Each interval's steps: the touches' steps, one gather each.
    step = np.repeat(np.arange(T, dtype=np.int32), width)
    hi = step[order]
    del order
    lo = step[lo]
    del step
    lo += 1
    # An empty interior is a hit at every M: it adds to no tally.
    live = lo < hi
    vq, lo, hi = vq[live], lo[live], hi[live]
    del live
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

    All three are int32: the graph keeps vertices plus edges, which
    bound the touches, below ``2**31``.  Only the two sort keys are
    int64, each sorted in place and dropped once used.  At n = 32
    (334,515 touches) this allocates at most ~6.3 MiB and the whole LRU
    pass ~8.1 MiB, against ~24 MiB for one loop run (tracemalloc).
    """
    n = len(is_input)
    T = plan.n_steps
    sched = plan.schedule
    ops = plan.step_ops
    n_ops = np.diff(plan.step_indptr)
    occ_step = np.repeat(np.arange(T, dtype=np.int32), n_ops)
    if not plan.validated and not _topological(sched, ops, occ_step,
                                               is_input, n):
        return None

    # The touch sequence: distinct (step, vertex) pairs in key order,
    # from one in-place sort of keys ``step << shift | vertex``.  Each
    # step touches its operands and its result, less repeated operands.
    shift = n.bit_length()
    n_occ = len(occ_step)
    key = np.empty(n_occ + T, dtype=np.int64)
    key[:n_occ] = occ_step
    del occ_step
    key[n_occ:] = np.arange(T, dtype=np.int32)
    key <<= shift
    key[:n_occ] |= ops
    key[n_occ:] |= sched
    key.sort()
    width = n_ops + 1
    del n_ops
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    if not keep.all():
        width -= np.bincount(key[~keep] >> shift, minlength=T).astype(np.int32)
        key = key[keep]
    del keep
    starts = np.zeros(T + 1, dtype=np.int32)
    np.cumsum(width, out=starts[1:])
    vertex = np.empty(len(key), dtype=np.int32)
    np.bitwise_and(key, (1 << shift) - 1, out=vertex, casting="unsafe")
    del key
    N = len(vertex)

    # prev[j]: the position of the previous touch of the same vertex,
    # from the touches sorted by keys ``vertex << shift | position``.
    shift = N.bit_length()
    key = vertex.astype(np.int64)
    key <<= shift
    key |= np.arange(N, dtype=np.int32)
    key.sort()
    pos = np.empty(N, dtype=np.int32)
    np.bitwise_and(key, (1 << shift) - 1, out=pos, casting="unsafe")
    key >>= shift
    same = key[1:] == key[:-1]
    del key
    prev = np.full(N, -1, dtype=np.int32)
    prev[pos[1:]] = np.where(same, pos[:-1], -1)
    return vertex, prev, starts


def _tally(plan, is_input, is_output, Ms, vq, d, first_inputs, distinct,
           wmax):
    """The count tuples from the reuse touches' vertices ``vq`` and
    values ``d``, where a touch misses at ``M`` iff ``d >= M``.  Sorts
    ``d`` in place."""
    T = plan.n_steps
    is_in = is_input[vq]
    spill = ~is_in & ~is_output[vq]
    maxd = np.full(len(is_input), -1, dtype=np.int32)
    np.maximum.at(maxd, vq[spill], d[spill])
    maxd.sort()
    del spill
    d_in = np.sort(d[is_in])
    del is_in
    d.sort()
    output_writes = int(np.count_nonzero(is_output[plan.schedule]))

    out = []
    for M in Ms:
        if M < wmax:
            out.append(CacheError("no eviction candidate available"))
            continue
        reads = first_inputs + _at_least(d, M)
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
    steps are non-empty and come in greedy order."""
    d = np.full(len(lo), max(Ms, default=0), dtype=np.int32)
    pending = np.ones(len(lo), dtype=bool)
    load = width.astype(np.int32)
    for M in Ms:
        if not pending.any():
            break
        take = np.zeros(len(lo), dtype=bool)
        take[pending] = _greedy(lo[pending], hi[pending],
                                (M - load).tolist())
        pending &= ~take
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


def _subtract_greater(values, y, hi, d):
    """For each query ``i``: ``d[i] -= #{j < hi[i] : values[j] > y[i]}``.
    Overwrites ``values`` and ``hi``.

    A wavelet matrix over ``values`` (non-negative), built and queried
    one bit level at a time from the top.  Each query follows the
    ``[lo, hi)`` range of the values whose higher bits equal its
    ``y``'s; at a level where ``y`` has a 0, the range's values with a 1
    there are the larger ones and are counted.  What is left at the end
    equals ``y``.  The level's value order and the next one's share two
    buffers, written in place level after level.
    """
    levels = int(max(values.max(initial=0), y.max(initial=0))).bit_length()
    lo = np.zeros_like(hi)
    ones_before = np.zeros(len(values) + 1, dtype=np.int32)
    bit = np.empty(len(values), dtype=bool)
    spare = np.empty_like(values)
    for b in range(levels - 1, -1, -1):
        np.bitwise_and(values, 1 << b, out=spare)
        np.not_equal(spare, 0, out=bit)
        np.cumsum(bit, dtype=np.int32, out=ones_before[1:])
        n_zeros = len(values) - int(ones_before[-1])
        lo1 = ones_before[lo]
        hi1 = ones_before[hi]
        one = (y & (1 << b)) != 0
        # Where y has a 0: count the range's ones and follow its zeros;
        # where it has a 1: follow its ones, whose block starts at
        # n_zeros.
        lo -= lo1
        hi -= hi1
        d -= np.where(one, 0, hi1 - lo1)
        lo = np.where(one, lo1 + n_zeros, lo)
        hi = np.where(one, hi1 + n_zeros, hi)
        del lo1, hi1, one
        if b:
            np.compress(bit, values, out=spare[n_zeros:])
            np.logical_not(bit, out=bit)
            np.compress(bit, values, out=spare[:n_zeros])
            values, spare = spare, values
