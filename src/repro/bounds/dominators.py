"""Hong-Kung S-partitions and dominator sets — the 1981 technique [10].

The paper's "Previous Work" section traces three proof techniques:
S-partitions/dominators (Hong-Kung), edge expansion (BDHS), and this
paper's path routings.  This module implements the first so all three
can be compared on the same CDAGs.

Definitions (Hong-Kung 1981):

- a *dominator* of a vertex set ``S`` is a vertex set ``D`` such that
  every path from an input to a vertex of ``S`` meets ``D``;
- the *minimum set* of ``S`` is the set of vertices of ``S`` with no
  successor inside ``S`` (values that must survive the phase);
- a ``2M``-partition splits the computed vertices into parts, each with
  a dominator of size ``<= 2M`` and a minimum set of size ``<= 2M``;
- **HK Lemma**: any execution with ``q`` I/Os induces a 2M-partition
  with ``h = ceil(q / M)`` parts; hence ``q >= M * (P(2M) - 1)`` where
  ``P(2M)`` is the minimal part count.

:func:`minimum_dominator_size` computes exact dominator sizes via a
minimum vertex cut (Dinic max-flow with vertex splitting, on the
targets' ancestor cone);
:func:`verify_hk_partition` checks the induced-partition side of the
lemma on real executions — experiment E14.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, csr_rows
from repro.utils.flow import Dinic

__all__ = [
    "minimum_dominator_size",
    "minimum_set",
    "partition_by_io",
    "verify_hk_partition",
    "hong_kung_bound_from_partition",
]


def minimum_dominator_size(cdag: CDAG, targets) -> int:
    """Size of a minimum dominator of ``targets``.

    Model: a vertex set ``D`` dominates ``targets`` iff removing ``D``
    disconnects every input-to-target path (a target may dominate
    itself).  Computed as a minimum vertex cut between a super-source
    attached to all inputs and a super-sink attached to all targets,
    with every ordinary vertex split into (in, out) joined by a
    unit-capacity arc.

    Inputs themselves are cuttable (they are vertices of the CDAG and may
    appear in a dominator), so their split arcs also have capacity 1.

    The network spans only the *ancestor cone* of ``targets``: the
    targets and every vertex with a path to one.  The cut is still exact:

    - every vertex on an input-to-target path is an ancestor of that
      target, so the cone holds every such path;
    - the cone is closed under predecessors, so its in-degree-0 vertices
      are exactly the CDAG inputs that reach a target;
    - therefore the cone network has the same source-to-sink paths as
      the whole-graph one, and the same minimum vertex cut.

    Raises ``ValueError`` for a target outside ``[0, n_vertices)``.
    """
    targets = _vertex_array(cdag, targets, "targets")
    if len(targets) == 0:
        return 0
    indptr, indices = cdag.pred_csr()
    in_cone = np.zeros(cdag.n_vertices, dtype=bool)
    in_cone[targets] = True
    frontier = np.flatnonzero(in_cone)
    while len(frontier):
        _, _, preds = csr_rows(indptr, indices, frontier)
        fresh = np.zeros(cdag.n_vertices, dtype=bool)
        fresh[preds] = True
        fresh &= ~in_cone
        in_cone |= fresh
        frontier = np.flatnonzero(fresh)
    cone = np.flatnonzero(in_cone)
    m = len(cone)
    # Cone vertex i (the i-th smallest id): in(i) = 2i, out(i) = 2i + 1;
    # source = 2m; sink = 2m + 1.
    _, child, preds = csr_rows(indptr, indices, cone)
    parent = np.searchsorted(cone, preds)
    inputs = np.flatnonzero(indptr[cone + 1] == indptr[cone])
    sinks = np.searchsorted(cone, targets)
    split = np.arange(m, dtype=np.int64)
    tails = np.concatenate(
        [2 * split, 2 * parent + 1, np.full(len(inputs), 2 * m), 2 * sinks + 1]
    )
    heads = np.concatenate(
        [2 * split + 1, 2 * child, 2 * inputs, np.full(len(sinks), 2 * m + 1)]
    )
    caps = np.full(len(tails), Dinic.INF, dtype=np.int64)
    caps[:m] = 1
    dinic = Dinic(2 * m + 2)
    for arc in zip(tails.tolist(), heads.tolist(), caps.tolist()):
        dinic.add_edge(*arc)
    return dinic.max_flow(2 * m, 2 * m + 1)


def minimum_set(cdag: CDAG, part) -> np.ndarray:
    """Hong-Kung's *minimum set*: vertices of ``part`` with no successor
    inside ``part`` (their values must outlive the phase).

    Raises ``ValueError`` for a vertex outside ``[0, n_vertices)``.
    """
    part = _vertex_array(cdag, part, "part")
    inside = np.zeros(cdag.n_vertices, dtype=bool)
    inside[part] = True
    # v has a successor inside iff v is a predecessor of a vertex inside.
    _, _, preds = csr_rows(*cdag.pred_csr(), part)
    feeds_inside = np.zeros(cdag.n_vertices, dtype=bool)
    feeds_inside[preds] = True
    return np.sort(part[~feeds_inside[part]])


def _vertex_array(cdag: CDAG, vertices, name: str) -> np.ndarray:
    """``vertices`` as an int64 array of ids in ``[0, n_vertices)``."""
    ids = np.asarray(vertices, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= cdag.n_vertices):
        raise ValueError(
            f"{name} must be vertex ids in [0, {cdag.n_vertices})"
        )
    return ids


def partition_by_io(
    cdag: CDAG,
    schedule,
    M: int,
    policy: str = "lru",
    executor=None,
) -> list[np.ndarray]:
    """Hong-Kung's induced partition: cut the execution every ``2M``
    I/Os.

    Runs the executor with a per-step I/O trace and splits the schedule
    whenever the cumulative I/O crosses another multiple of ``2M`` —
    exactly the phases of the HK proof.  ``executor`` is a
    :class:`~repro.pebbling.CacheExecutor` of ``cdag`` to run on, so a
    caller that already ran the schedule reuses its compiled plan; a
    fresh one by default.  An executor of another graph raises
    ``ValueError``.
    """
    from repro.pebbling.executor import CacheExecutor

    schedule = np.asarray(schedule, dtype=np.int64)
    if executor is None:
        executor = CacheExecutor(cdag)
    elif executor.cdag is not cdag:
        raise ValueError("executor runs another CDAG")
    trace: list[int] = []
    executor.run(schedule, M, policy=policy, io_trace=trace)
    parts: list[np.ndarray] = []
    start = 0
    boundary = 2 * M
    for t, cumulative in enumerate(trace):
        if cumulative >= boundary:
            parts.append(schedule[start : t + 1])
            start = t + 1
            boundary += 2 * M
    if start < len(schedule):
        parts.append(schedule[start:])
    return parts


def verify_hk_partition(
    cdag: CDAG, segments, M: int
) -> dict:
    """Check Hong-Kung's induced-partition property on execution
    segments.

    For segments obtained by cutting an execution every ``2M`` I/Os, the
    HK lemma promises dominator and minimum-set sizes ``<= 2M + M``
    (dominator: values in cache at segment start plus values read during
    it; minimum set: values surviving to slow memory or cache).  We
    measure both quantities exactly and report the maxima.
    """
    max_dom = 0
    max_min = 0
    for seg in segments:
        max_dom = max(max_dom, minimum_dominator_size(cdag, seg))
        max_min = max(max_min, len(minimum_set(cdag, seg)))
    return {
        "n_parts": len(segments),
        "max_dominator": max_dom,
        "max_minimum_set": max_min,
        "dominator_ok": max_dom <= 3 * M,
        "minimum_set_ok": max_min <= 3 * M,
    }


def hong_kung_bound_from_partition(n_parts: int, M: int) -> int:
    """The HK lower bound ``M * (P(2M) - 1)`` given a part count
    (a valid 2M-partition witnesses ``P(2M) <= n_parts``, so this is the
    bound the *witnessed* partition certifies)."""
    return max(0, M * (n_parts - 1))
