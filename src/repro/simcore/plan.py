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

    The LRU and Belady passes read these arrays directly — for a plan
    loaded from a bundle they stay read-only memmaps.  The simulation
    loop indexes them as Python lists (cheaper per element than numpy
    scalars), materialised lazily on its first run by
    :meth:`ensure_lists`; a plan that only ever runs the passes (or is
    loaded but never run) never pays that materialisation, and one that
    never runs Belady on the loop never builds Belady's next-use
    lists.
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
        # vertex's group stays time-ordered) and link neighbours.
        order = np.argsort(step_ops, kind="stable")
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

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The plan's serialisable arrays (bundle format; names match
        :data:`repro.cdag.artifact.PLAN_ARRAY_NAMES`)."""
        return {
            "schedule": np.ascontiguousarray(self.schedule, dtype=np.int64),
            "step_indptr": np.ascontiguousarray(self.step_indptr, dtype=np.int64),
            "step_ops": np.ascontiguousarray(self.step_ops, dtype=np.int64),
            "occ_next": np.ascontiguousarray(self.occ_next, dtype=np.int64),
            "first_use": np.ascontiguousarray(self.first_use, dtype=np.int64),
            "uses_left0": np.ascontiguousarray(self.uses_left0, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays, validated: bool) -> "SchedulePlan":
        """Rebuild a plan from bundle arrays without recompiling (the
        arrays may be read-only memmaps; the simulators only read
        them)."""
        self = cls.__new__(cls)
        self.schedule = arrays["schedule"]
        self.step_indptr = arrays["step_indptr"]
        self.step_ops = arrays["step_ops"]
        self.occ_next = arrays["occ_next"]
        self.first_use = arrays["first_use"]
        self.uses_left0 = arrays["uses_left0"]
        self.n_steps = len(self.schedule)
        self.validated = validated
        self._sched_l = self._occ_next_l = self._first_use_l = None
        return self

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
