"""The core's one entry point: :func:`run_configs`.

Every ``(cache_size, policy)`` simulation of a
:class:`~repro.simcore.plan.SchedulePlan` runs through
:func:`run_configs`.  It checks the policy names and picks, per
configuration, one of two routes to the same counts:

- one pass per policy for every LRU configuration
  (:func:`~repro.simcore.stack.lru_counts`) and every Belady one
  (:func:`~repro.simcore.stack.belady_counts`) without an ``io_trace``;
- the pure-Python loop (:func:`~repro.simcore.pyloops.simulate_py`) for
  the rest: FIFO, ``io_trace`` runs, and a plan the passes leave to the
  loop.

Both raise :class:`~repro.errors.ScheduleError` /
:class:`~repro.errors.CacheError` for a configuration that cannot run,
and each configuration adds one ``simcore.kernel.fallback`` count.
Configurations run serially, in order, as the returned iterator
reaches them.
"""

from __future__ import annotations

from repro.errors import CacheError
from repro.simcore.pyloops import count_simulation, simulate_py
from repro.simcore.stack import belady_counts, lru_counts

__all__ = ["POLICY_CODES", "policy_code", "run_configs"]

#: Policy name -> the integer code every simulation dispatches on.
POLICY_CODES = {"lru": 0, "fifo": 1, "belady": 2}


def policy_code(policy: str) -> int:
    """The code of an eviction policy name; raises :class:`CacheError`
    for a name no path implements."""
    code = POLICY_CODES.get(policy)
    if code is None:
        raise CacheError(f"unknown eviction policy {policy!r}")
    return code


def run_configs(plan, is_input, is_output, configs, io_trace=None):
    """Run ``(cache_size, policy)`` configurations over one plan.

    Returns an iterator of raw count tuples ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)``, one per configuration, in order.  When ``io_trace`` is
    a list, the cumulative I/O count after each schedule step is appended
    to it.  Unknown policy names raise :class:`CacheError` at the call.

    The iterator runs each configuration when it reaches it, and a
    policy's pass for all its LRU or Belady configurations when it
    reaches the first of them; so a caller timing each ``next()`` times
    that configuration alone, or that pass.  A configuration that cannot
    run raises :class:`~repro.errors.ScheduleError` or
    :class:`CacheError` at its own ``next()``, and the iterator goes on
    to the next configuration.
    """
    Ms = [int(M) for M, _ in configs]
    codes = [policy_code(p) for _, p in configs]
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
                count_simulation()
                if isinstance(counts, Exception):
                    raise counts
                return counts
        return simulate_py(plan, is_input, is_output, M, code, io_trace)

    return map(run, Ms, codes)
