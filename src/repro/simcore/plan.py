"""Schedule plans: the policy-independent precompute every simulator
shares.

A *plan* compiles one ``(graph, schedule)`` pair into flat int64
arrays — operand occurrences in CSR form, per-occurrence next-use
times, per-vertex first-use times and initial use counts.  Built once,
a plan serves every ``(cache_size, policy)`` configuration of a sweep:
the simulation loop (:mod:`repro.simcore.pyloops`), the LRU and Belady
passes (:mod:`repro.simcore.stack`) and the pebble-game trace replay
all read the same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, csr_rows

__all__ = ["SchedulePlan", "gather_operands"]


class SchedulePlan:
    """Policy-independent precompute for one schedule (built once,
    reused across every ``(cache_size, policy)`` configuration).

    All arrays are flat and vectorised off the CDAG's predecessor CSR:

    - ``step_indptr`` / ``step_ops``: operand occurrences in schedule
      order (``step_ops[step_indptr[t]:step_indptr[t+1]]`` are the
      predecessors of the vertex computed at step ``t``);
    - ``occ_next``: for each occurrence, the next step at which the same
      vertex is used again (``T`` = never) — the backward-scan next-use
      linked list Belady keys evictions on (computed in one vectorised
      pass, shared by every cache size and policy of a batch);
    - ``first_use``: per vertex, the first step using it (``T`` = never);
    - ``uses_left0``: per vertex, total number of uses.

    The LRU and Belady passes read these arrays directly.  The
    simulation loop indexes them as Python lists (cheaper per element
    than numpy scalars), materialised lazily on its first run by
    :meth:`ensure_lists`; a plan that only ever runs the passes never
    pays that materialisation, and one that never runs Belady on the
    loop never builds Belady's next-use lists.
    """

    __slots__ = (
        "schedule", "step_indptr", "step_ops", "occ_next", "first_use",
        "uses_left0", "n_steps", "validated",
        "_sched_l", "_indptr_l", "_ops_l", "_occ_next_l", "_first_use_l",
        "_uses_l",
    )

    def __init__(self, cdag: CDAG, schedule: np.ndarray, validated: bool):
        n = cdag.n_vertices
        self.schedule = schedule
        self.validated = validated
        T = self.n_steps = len(schedule)
        step_indptr, step_ops, occ_time = gather_operands(cdag, schedule)
        total = len(step_ops)

        # Backward-scan next-use list, vectorised: stable-sort the
        # occurrences by vertex (they are already time-ordered, so each
        # vertex's group stays time-ordered) and link neighbours.  The
        # stable order comes from one in-place sort of packed keys
        # ``vertex << shift | occurrence``: vertices stay below 2^25
        # (``MAX_VERTICES``) and occurrences, which are edges, below
        # 2^27, so every key fits in int64.
        shift = total.bit_length()
        order = step_ops << shift
        order |= np.arange(total, dtype=np.int64)
        order.sort()
        order &= (1 << shift) - 1
        sv = step_ops[order]
        st = occ_time[order]
        nxt = np.full(total, T, dtype=np.int64)
        if total > 1:
            same = sv[:-1] == sv[1:]
            nxt[:-1][same] = st[1:][same]
        occ_next = np.empty(total, dtype=np.int64)
        occ_next[order] = nxt

        first_use = np.full(n, T, dtype=np.int64)
        if total:
            first_use[sv[::-1]] = st[::-1]

        self.step_indptr = step_indptr
        self.step_ops = step_ops
        self.occ_next = occ_next
        self.first_use = first_use
        self.uses_left0 = np.bincount(step_ops, minlength=n).astype(np.int64)
        self._sched_l = self._occ_next_l = self._first_use_l = None

    def ensure_lists(self, belady: bool = False) -> None:
        """Materialise the simulation loop's Python lists (idempotent).
        Belady's next-use lists are built only once a Belady
        configuration asks for them."""
        if self._sched_l is None:
            self._sched_l = self.schedule.tolist()
            self._indptr_l = self.step_indptr.tolist()
            self._ops_l = self.step_ops.tolist()
            self._uses_l = self.uses_left0.tolist()
        if belady and self._occ_next_l is None:
            self._occ_next_l = self.occ_next.tolist()
            self._first_use_l = self.first_use.tolist()


def gather_operands(
    cdag: CDAG, schedule: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the predecessor lists of a schedule into occurrence
    arrays: ``(step_indptr, step_ops, occ_time)``."""
    step_indptr, occ_time, step_ops = csr_rows(*cdag.pred_csr(), schedule)
    return step_indptr, step_ops, occ_time
