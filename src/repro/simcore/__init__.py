"""The unified columnar simulation core.

One simulation engine serves every pebble-game simulator in the
repository:

- :mod:`repro.simcore.plan` — :class:`SchedulePlan`, the
  policy-independent ``(graph, schedule)`` precompute (operand CSR,
  next-use and first-use arrays) every simulation reads;
- :mod:`repro.simcore.pyloops` — the machine as one Python loop, with
  the same keys and victim pops for every policy over Python lists: a
  recency queue (LRU, FIFO) and an int heap (Belady); it runs FIFO,
  ``io_trace`` runs and the pebble-game event replay;
- :mod:`repro.simcore.stack` — LRU's and Belady's counts at every
  cache size from one pass over a plan (stack distances for LRU, the
  OPTgen interval greedy for Belady), bit-identical to the loop;
- :mod:`repro.simcore.parallel` — columnar partition-traffic helpers
  for the distributed machine model.

:class:`repro.pebbling.CacheExecutor` is the one entry point into the
passes and the loop: it checks each ``(cache_size, policy)``
configuration, picks its route and adds one ``simcore.kernel.fallback``
count per configuration.  It and :mod:`repro.parallel` are thin views
over this core; the golden reference implementations they are
bit-identical to live under ``tests/``.  The address-trace cache of
:mod:`repro.tracesim` is a separate, line-granular model and does not
run on it.

``HAVE_NUMBA`` and :func:`active_mode` describe the one path for host
fingerprints that still record them; nothing in the package reads them.
"""

from repro.simcore.plan import SchedulePlan, gather_operands
from repro.simcore.pyloops import POLICIES, simulate_py

__all__ = [
    "HAVE_NUMBA",
    "active_mode",
    "POLICIES",
    "SchedulePlan",
    "gather_operands",
    "simulate_py",
]

#: The core has no compiled backend.
HAVE_NUMBA = False


def active_mode() -> str:
    """The simulation path: always ``"off"``, the pure-Python one."""
    return "off"
