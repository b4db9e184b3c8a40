"""The unified columnar simulation core.

One simulation engine serves every pebble-game simulator in the
repository:

- :mod:`repro.simcore.dispatch` — the single kernel-mode gate
  (``jit`` / ``interp`` / ``off``) plus the shared telemetry hooks
  (``simcore.kernel.{jit,interp,fallback}`` path counters and the
  first-call ``simcore.kernel.compile_s`` gauge);
- :mod:`repro.simcore.plan` — :class:`SchedulePlan`, the
  policy-independent ``(graph, schedule)`` precompute (operand CSR,
  next-use and first-use arrays) every path reads;
- :mod:`repro.simcore.policies` — the one machine step, an ``njit``
  body over single rows of state with a lazy int64-encoded min-heap;
  LRU, FIFO and Belady differ only in the key a touch gives a vertex
  and in how the victim is popped;
- :mod:`repro.simcore.grid` — :func:`run_configs`, the one entry point
  that runs ``(cache_size, policy)`` configurations over a plan (policy
  check, path choice, status-to-exception mapping, thread chunks under
  ``REPRO_GRID_THREADS``), plus the per-config kernel and the
  lockstep whole-grid kernel it picks from;
- :mod:`repro.simcore.pyloops` — the Python specialisation of that
  step: one loop with the same keys and victim pops over Python lists,
  a recency queue (LRU, FIFO) and an int heap (Belady), bit-identical to
  the kernels and ~10x faster than running the kernel code interpreted
  (also the pebble-game event source);
- :mod:`repro.simcore.stack` — LRU's and Belady's counts at every
  cache size from one pass over a plan (stack distances for LRU, the
  OPTgen interval greedy for Belady), bit-identical to the loop; the
  fallback takes count-only LRU and Belady configurations from it;
- :mod:`repro.simcore.parallel` — columnar partition-traffic helpers
  for the distributed machine model.

Consumers (:mod:`repro.pebbling`, :mod:`repro.parallel`) are thin views
over this core; the golden reference implementations they are
bit-identical to live under ``tests/``.  The address-trace cache of
:mod:`repro.tracesim` is a separate, line-granular model and does not
run on it.
"""

from repro.simcore.dispatch import (
    HAVE_NUMBA,
    active_mode,
    forced_mode,
    set_mode,
)
from repro.simcore.grid import run_configs, run_grid, simulate_plan
from repro.simcore.plan import SchedulePlan, gather_operands
from repro.simcore.pyloops import simulate_py

__all__ = [
    "HAVE_NUMBA",
    "active_mode",
    "forced_mode",
    "set_mode",
    "SchedulePlan",
    "gather_operands",
    "run_configs",
    "simulate_plan",
    "run_grid",
    "simulate_py",
]
