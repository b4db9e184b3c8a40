"""Schedule plans: the policy-independent precompute every simulator
shares.

A *plan* compiles one ``(graph, schedule)`` pair into flat int32
arrays — operand occurrences in CSR form and, for the simulation loop,
per-occurrence next-use times, per-vertex first-use times and initial
use counts.  Built once, a plan serves every ``(cache_size, policy)``
configuration of a sweep: the simulation loop
(:mod:`repro.simcore.pyloops`), the LRU and Belady passes
(:mod:`repro.simcore.stack`) and the pebble-game trace replay all read
the same arrays.

Vertex ids, occurrence indices and steps are int32, like the graph's
CSR (:func:`~repro.cdag.builder.build_cdag` keeps vertices plus edges
below ``2**31``); the schedule stays the int64 array
:func:`~repro.schedules.validate_schedule` returns.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, csr_rows

__all__ = ["SchedulePlan", "gather_operands"]


class SchedulePlan:
    """Policy-independent precompute for one schedule (built once,
    reused across every ``(cache_size, policy)`` configuration).

    All arrays are flat, int32 and vectorised off the CDAG's predecessor
    CSR:

    - ``step_indptr`` / ``step_ops``: operand occurrences in schedule
      order (``step_ops[step_indptr[t]:step_indptr[t+1]]`` are the
      predecessors of the vertex computed at step ``t``);
    - ``occ_next``: for each occurrence, the next step at which the same
      vertex is used again (``T`` = never) — the backward-scan next-use
      linked list Belady keys evictions on (computed in one vectorised
      pass, shared by every cache size and policy of a batch);
    - ``first_use``: per vertex, the first step using it (``T`` = never);
    - ``uses_left0``: per vertex, total number of uses.

    The LRU and Belady passes read only the schedule and the operand
    CSR.  The last three arrays serve the simulation loop alone, so
    they are computed on first access; a plan that only ever runs the
    passes never holds them.  The loop indexes its arrays as Python
    lists (cheaper per element than numpy scalars), materialised lazily
    on its first run by :meth:`ensure_lists`; a plan that never runs
    Belady on the loop never builds Belady's next-use lists.
    """

    __slots__ = (
        "schedule", "step_indptr", "step_ops", "n_steps", "n_vertices",
        "validated", "_occ_next", "_first_use", "_uses_left0",
        "_sched_l", "_indptr_l", "_ops_l", "_occ_next_l", "_first_use_l",
        "_uses_l",
    )

    def __init__(
        self, cdag: CDAG, schedule: np.ndarray, validated: bool,
        operands=None,
    ):
        """``operands`` is :func:`gather_operands` of the same pair when
        the caller already has it (a validated compile does)."""
        self.schedule = schedule
        self.validated = validated
        self.n_steps = len(schedule)
        self.n_vertices = cdag.n_vertices
        if operands is None:
            operands = gather_operands(cdag, schedule)
        self.step_indptr, self.step_ops, _ = operands
        self._occ_next = self._first_use = self._uses_left0 = None
        self._sched_l = self._occ_next_l = self._first_use_l = None

    @property
    def occ_next(self) -> np.ndarray:
        if self._occ_next is None:
            self._next_use()
        return self._occ_next

    @property
    def first_use(self) -> np.ndarray:
        if self._first_use is None:
            self._next_use()
        return self._first_use

    @property
    def uses_left0(self) -> np.ndarray:
        if self._uses_left0 is None:
            self._uses_left0 = np.bincount(
                self.step_ops, minlength=self.n_vertices
            ).astype(np.int32)
        return self._uses_left0

    def _next_use(self) -> None:
        """The backward-scan next-use list, vectorised: stable-sort the
        occurrences by vertex (they are already time-ordered, so each
        vertex's group stays time-ordered) and link neighbours.  The
        stable order comes from one in-place sort of packed int64 keys
        ``vertex << shift | occurrence``: vertices and occurrences are
        both below ``2**31``, so every key fits."""
        T = self.n_steps
        ops = self.step_ops
        total = len(ops)
        shift = total.bit_length()
        order = ops.astype(np.int64)
        order <<= shift
        order |= np.arange(total, dtype=np.int32)
        order.sort()
        order &= (1 << shift) - 1
        occ_time = np.repeat(np.arange(T, dtype=np.int32),
                             np.diff(self.step_indptr))
        sv = ops[order]
        st = occ_time[order]
        del occ_time
        nxt = np.full(total, T, dtype=np.int32)
        if total > 1:
            same = sv[:-1] == sv[1:]
            nxt[:-1][same] = st[1:][same]
            del same
        occ_next = np.empty(total, dtype=np.int32)
        occ_next[order] = nxt
        del order, nxt
        first_use = np.full(self.n_vertices, T, dtype=np.int32)
        if total:
            first_use[sv[::-1]] = st[::-1]
        self._occ_next = occ_next
        self._first_use = first_use

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
    arrays: ``(step_indptr, step_ops, occ_time)``, all int32."""
    step_indptr, occ_time, step_ops = csr_rows(*cdag.pred_csr(), schedule)
    return step_indptr, step_ops, occ_time
