"""Batched grid simulation, and the core's one entry point.

:func:`run_configs` is how every ``(cache_size, policy)`` simulation of
a :class:`~repro.simcore.plan.SchedulePlan` is run: it checks the policy
names, picks the path, maps kernel status codes onto
:class:`~repro.errors.ScheduleError` / :class:`~repro.errors.CacheError`
and owns grid parallelism.  The paths it chooses between:

- the lockstep grid kernel for a batch on the kernel path: every kind
  of per-vertex state is one ``(config, slot)`` matrix (row =
  configuration, slot axis = vertex / heap entry / scalar index), and
  ``_grid_lockstep`` advances *all* rows through schedule step ``t``
  before moving to ``t + 1``, whatever their policies.  The schedule,
  operand CSR and next-use arrays are read once per step and shared
  across every row, so a thousand-configuration sweep costs one pass
  over the plan instead of a thousand;
- the per-config kernel for a single configuration or an ``io_trace``;
- on the fallback, one pass per policy for every LRU configuration
  (:func:`~repro.simcore.stack.lru_counts`) and every Belady one
  (:func:`~repro.simcore.stack.belady_counts`) without an
  ``io_trace``, and the pure-Python loop (:mod:`repro.simcore.pyloops`)
  for the rest.

Both kernels step each row through the one machine step
(:func:`repro.simcore.policies._step`), which takes the row's policy
code as an argument.

Configurations are independent, so the interleaving cannot change any
row's result — bit-identity with single-config runs is structural, and
the hypothesis suite (``tests/simcore/``) asserts it anyway.

Parallelism
-----------
One knob, ``REPRO_GRID_THREADS``; a grid that reads anything but a
positive integer there raises :class:`ValueError`:

- under numba the kernel releases the GIL, so :func:`run_grid` splits
  the config rows into chunks and steps them on a thread pool (default:
  up to 8, bounded by ``os.cpu_count()``); chunks also bound peak state
  memory to ``chunk_rows x n_vertices``;
- the fallback reads the knob for a batch too, but always runs
  serially: threads would contend for the GIL, and with every LRU and
  Belady configuration counted by one pass, a process per share of the
  batch cost more than it saved (E9's r = 5 recursive grid, LRU and
  Belady at four cache sizes, on a 2-core host without numba: 0.56-0.58 s
  serial, 0.68-0.76 s in two processes);
- the ``interp`` test mode always runs single-threaded.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import CacheError, ScheduleError
from repro.simcore.dispatch import (
    active_mode,
    count_path,
    njit,
    note_first_call,
)
from repro.simcore.policies import (
    ERR_A,
    ERR_B,
    READS,
    SC_LEN,
    STATUS,
    STATUS_NO_VICTIM,
    STATUS_OK,
    STATUS_OPERAND_MISSING,
    WRITES,
    _drain_outputs,
    _step,
    policy_code,
)
from repro.simcore.pyloops import simulate_py
from repro.simcore.stack import belady_counts, lru_counts

__all__ = ["run_configs", "simulate_plan", "run_grid"]


# ----------------------------------------------------------------------
# Per-config kernel (single row of state; io_trace support).
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _simulate_one(sched, indptr, ops, occ_next, first_use, uses_left0,
                  is_input, is_output, n, cache_size, policy_code,
                  trace, want_trace, sc):
    """One configuration (policy codes: 0 = LRU, 1 = FIFO, 2 = Belady)
    over one row of state."""
    T = sched.shape[0]
    cached = np.zeros(n, dtype=np.uint8)
    dirty = np.zeros(n, dtype=np.uint8)
    in_slow = np.empty(n, dtype=np.uint8)
    output_written = np.zeros(n, dtype=np.uint8)
    uses_left = np.empty(n, dtype=np.int64)
    key = np.zeros(n, dtype=np.int64)
    pinned = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        in_slow[i] = is_input[i]
        uses_left[i] = uses_left0[i]
    heap = np.empty(ops.shape[0] + T + 2, dtype=np.int64)
    aside = np.empty(n, dtype=np.int64)

    for t in range(T):
        if _step(sched[t], t, indptr[t], indptr[t + 1], ops, occ_next,
                 first_use, n, T, cache_size, policy_code, is_input,
                 is_output, cached, dirty, in_slow, output_written,
                 uses_left, key, pinned, heap, aside, sc) < 0:
            return
        if want_trace:
            trace[t] = sc[READS] + sc[WRITES]

    _drain_outputs(n, is_output, dirty, output_written, sc)


# ----------------------------------------------------------------------
# Lockstep grid kernel: (config, slot) 2-D state, time-major loop.
# ----------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _grid_lockstep(sched, indptr, ops, occ_next, first_use, uses_left0,
                   is_input, is_output, n, cache_sizes, policy_codes,
                   cached, dirty, in_slow, output_written, uses_left,
                   key, pinned, heaps, aside, sc):
    """Step every configuration row through the schedule in lockstep.

    All state matrices are ``(n_configs, slots)``; row ``j`` is
    configuration ``(cache_sizes[j], policy_codes[j])``'s private state,
    initialised here so callers can pass ``np.empty`` storage.  Rows
    whose ``STATUS`` goes non-OK stop stepping; the rest of the grid
    continues.
    """
    T = sched.shape[0]
    C = cache_sizes.shape[0]
    for j in range(C):
        for k in range(SC_LEN):
            sc[j, k] = 0
        for i in range(n):
            cached[j, i] = 0
            dirty[j, i] = 0
            in_slow[j, i] = is_input[i]
            output_written[j, i] = 0
            uses_left[j, i] = uses_left0[i]
            key[j, i] = 0
            pinned[j, i] = -1
    for t in range(T):
        v = sched[t]
        start = indptr[t]
        end = indptr[t + 1]
        for j in range(C):
            if sc[j, STATUS] != STATUS_OK:
                continue
            _step(v, t, start, end, ops, occ_next, first_use, n, T,
                  cache_sizes[j], policy_codes[j], is_input, is_output,
                  cached[j], dirty[j], in_slow[j], output_written[j],
                  uses_left[j], key[j], pinned[j], heaps[j], aside[j],
                  sc[j])
    for j in range(C):
        if sc[j, STATUS] == STATUS_OK:
            _drain_outputs(n, is_output, dirty[j], output_written[j], sc[j])


# ----------------------------------------------------------------------
# Python wrappers.
# ----------------------------------------------------------------------

_DUMMY_TRACE = np.empty(1, dtype=np.int64)

#: Grids smaller than this never split across threads — the pool and
#: per-chunk state setup would dominate.
_MIN_CHUNK = 4

#: The one parallelism knob (see the module docstring).
ENV_GRID_THREADS = "REPRO_GRID_THREADS"


def _n_threads(default: int) -> int:
    """``REPRO_GRID_THREADS``, or ``default`` when it is unset."""
    env = os.environ.get(ENV_GRID_THREADS, "")
    if not env:
        return default
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"{ENV_GRID_THREADS} must be an integer >= 1, got {env!r}"
        )
    return n


def run_configs(plan, is_input, is_output, configs, io_trace=None):
    """Run ``(cache_size, policy)`` configurations over one plan.

    Returns an iterator of raw count tuples ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)``, one per configuration, in order.  When ``io_trace`` is
    a list, the cumulative I/O count after each schedule step is appended
    to it.  Unknown policy names raise :class:`CacheError` at the call;
    a configuration that cannot run raises :class:`ScheduleError` or
    :class:`CacheError` no later than when the iterator reaches it.
    Each configuration adds one ``simcore.kernel.*`` count.

    The lockstep grid runs the whole batch before returning.  The
    fallback runs each configuration when the iterator reaches it, and a
    policy's pass for all its LRU or Belady configurations when it
    reaches the first of them; so a caller timing each ``next()`` times
    that configuration alone, or that pass.  A configuration that fails
    on the fallback raises at its own ``next()``, and the iterator goes
    on to the next configuration.
    """
    Ms = [int(M) for M, _ in configs]
    codes = [policy_code(p) for _, p in configs]
    batch = len(Ms) > 1 and io_trace is None
    if active_mode() == "off":
        if batch:
            _n_threads(1)  # a malformed knob raises, as under numba
        return _fallback(plan, is_input, is_output, Ms, codes, io_trace)
    args = (plan.kernel_arrays(),
            np.ascontiguousarray(is_input).view(np.uint8),
            np.ascontiguousarray(is_output).view(np.uint8))
    if batch:
        return map(_counts, run_grid(*args, Ms, codes))
    return (_run_one(args, M, code, plan.n_steps, io_trace)
            for M, code in zip(Ms, codes))


def _run_one(args, cache_size, code, n_steps, io_trace):
    trace = None if io_trace is None else np.zeros(n_steps, dtype=np.int64)
    counts = _counts(simulate_plan(*args, cache_size, code, trace))
    if trace is not None:
        io_trace.extend(trace.tolist())
    return counts


def _counts(sc) -> tuple:
    """The count tuple of a kernel scalar vector; a failed run raises."""
    status = int(sc[STATUS])
    if status == STATUS_OPERAND_MISSING:
        raise ScheduleError(
            f"operand {int(sc[ERR_A])} of {int(sc[ERR_B])} "
            "is neither cached nor in slow memory"
        )
    if status == STATUS_NO_VICTIM:
        raise CacheError("no eviction candidate available")
    return tuple(int(x) for x in sc[:8])


def _fallback(plan, is_input, is_output, Ms, codes, io_trace=None):
    """The fallback's count tuples, one per configuration, as an
    iterator that runs each configuration when it is reached.

    LRU and Belady configurations without an ``io_trace`` come from one
    pass per policy (:func:`~repro.simcore.stack.lru_counts`,
    :func:`~repro.simcore.stack.belady_counts`), run for all of that
    policy's configurations when the iterator reaches the first; the
    rest run :func:`~repro.simcore.pyloops.simulate_py`.  A
    configuration that cannot run raises when it is reached and the
    iterator goes on.
    """
    passes = {0: lru_counts, 2: belady_counts} if io_trace is None else {}
    counted = {}

    def run(M, code):
        if code in passes:
            if code not in counted:
                group = sorted({m for m, c in zip(Ms, codes) if c == code})
                out = passes[code](plan, is_input, is_output, group)
                counted[code] = {} if out is None else dict(zip(group, out))
            counts = counted[code].get(M)
            if counts is not None:
                count_path("off")
                if isinstance(counts, Exception):
                    raise counts
                return counts
        return simulate_py(plan, is_input, is_output, M, code, io_trace)

    return map(run, Ms, codes)


def simulate_plan(plan_arrays, is_input_u8, is_output_u8, cache_size,
                  policy_code, trace=None) -> np.ndarray:
    """Run one ``(cache_size, policy)`` configuration over a plan's
    kernel arrays; returns the ``SC_LEN`` scalar vector (first eight
    slots are the count tuple, then status/diagnostics).

    ``plan_arrays`` is the tuple from
    :meth:`SchedulePlan.kernel_arrays` — contiguous int64 arrays in
    ``PLAN_ARRAY_NAMES`` order, possibly read-only memmaps straight from
    a plan bundle (the kernels never write them).
    """
    sched, indptr, ops, occ_next, first_use, uses_left0 = plan_arrays
    sc = np.zeros(SC_LEN, dtype=np.int64)
    want_trace = trace is not None
    t0 = time.perf_counter()
    _simulate_one(sched, indptr, ops, occ_next, first_use, uses_left0,
                  is_input_u8, is_output_u8, is_input_u8.shape[0],
                  cache_size, policy_code,
                  trace if want_trace else _DUMMY_TRACE, want_trace, sc)
    note_first_call(time.perf_counter() - t0)
    count_path(active_mode())
    return sc


def run_grid(plan_arrays, is_input_u8, is_output_u8, cache_sizes,
             policy_codes) -> np.ndarray:
    """Batched lockstep sweep over one plan: returns an
    ``(n_configs, SC_LEN)`` matrix, one scalar vector per
    ``(cache_size, policy)`` cell.

    Under numba the grid's config rows are chunked across a thread pool
    (the kernel is ``nogil``), so large sweeps use every core from one
    process; see the module docstring for the knob.
    """
    sched, indptr, ops, occ_next, first_use, uses_left0 = plan_arrays
    Ms = np.ascontiguousarray(cache_sizes, dtype=np.int64)
    pols = np.ascontiguousarray(policy_codes, dtype=np.int64)
    C = Ms.shape[0]
    n = int(is_input_u8.shape[0])
    heap_cap = ops.shape[0] + sched.shape[0] + 2
    out = np.zeros((C, SC_LEN), dtype=np.int64)

    def _run_rows(lo: int, hi: int) -> None:
        c = hi - lo
        cached = np.empty((c, n), dtype=np.uint8)
        dirty = np.empty((c, n), dtype=np.uint8)
        in_slow = np.empty((c, n), dtype=np.uint8)
        output_written = np.empty((c, n), dtype=np.uint8)
        uses_left = np.empty((c, n), dtype=np.int64)
        key = np.empty((c, n), dtype=np.int64)
        pinned = np.empty((c, n), dtype=np.int64)
        heaps = np.empty((c, heap_cap), dtype=np.int64)
        aside = np.empty((c, n), dtype=np.int64)
        _grid_lockstep(sched, indptr, ops, occ_next, first_use, uses_left0,
                       is_input_u8, is_output_u8, n, Ms[lo:hi], pols[lo:hi],
                       cached, dirty, in_slow, output_written, uses_left,
                       key, pinned, heaps, aside, out[lo:hi])

    mode = active_mode()
    threads = (_n_threads(max(1, min(os.cpu_count() or 1, 8)))
               if mode == "jit" else 1)
    n_chunks = min(threads, max(1, C // _MIN_CHUNK))
    t0 = time.perf_counter()
    if n_chunks <= 1:
        _run_rows(0, C)
    else:
        bounds = [round(i * C / n_chunks) for i in range(n_chunks + 1)]
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            list(pool.map(lambda b: _run_rows(*b),
                          zip(bounds[:-1], bounds[1:])))
    note_first_call(time.perf_counter() - t0)
    count_path(mode, C)
    return out
