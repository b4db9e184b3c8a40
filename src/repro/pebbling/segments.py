"""The paper's segment-counting machinery (Sections 5 and 6).

Both proofs partition the sequence of vertex computations into segments
``S`` containing a prescribed number of *counted* vertices ``S̄`` on
specific ranks, then bound the boundary ``δ(S)`` (Definition 1) or its
meta-vertex analogue ``δ'(S')`` from below via the routing, concluding
each segment performs at least ``M`` I/Os.

This module implements the *measurable* side on real executions:

- :func:`boundary_sets` — ``R(S)``, ``W(S)``, ``δ(S)`` per Definition 1;
- :func:`meta_boundary` — ``δ'(S')``, Definition 1 on meta-vertices;
- :func:`partition_schedule` — cut a schedule into segments with
  ``|S̄| >= threshold`` counted vertices (meta-closure included, per the
  paper's convention);
- :class:`SegmentAnalysis` — runs the full Section 6 experiment: builds
  the counted-vertex mask (rank ``k`` of the decoder + rank ``r-k`` of
  both encoders, restricted to an input-disjoint family), partitions,
  and reports per-segment ``|S̄|``, ``|δ(S)|``, ``|δ'(S')|`` and the
  implied I/O lower bound ``max(0, |δ'(S')| - 2M)``.

Checking ``|δ'(S')| >= |S̄| / 12`` (Equation 2) — and ``>= |S̄| / 22``
for the Section-5 decoder-only variant (Equation 1) — on every segment of
every schedule exercised is experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.theorem1 import paper_k_section6
from repro.cdag.decompose import Subcomputation, input_disjoint_family
from repro.cdag.graph import CDAG, Region, csr_rows
from repro.cdag.metavertex import MetaVertexPartition
from repro.errors import PartitionError
from repro.utils.validation import check_positive_int

__all__ = [
    "boundary_sets",
    "meta_boundary",
    "counted_mask_section5",
    "counted_mask_section6",
    "partition_schedule",
    "SegmentRecord",
    "SegmentAnalysis",
]


def boundary_sets(
    cdag: CDAG, segment: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``R(S)`` and ``W(S)`` of Definition 1.

    ``R(S)``: vertices outside ``S`` with an edge *into* ``S`` (must be
    read during S, unless already cached).  ``W(S)``: vertices of ``S``
    with an edge out of ``S`` (must survive S, in cache or slow memory).
    """
    segment = np.asarray(segment, dtype=np.int64)
    in_segment = np.zeros(cdag.n_vertices, dtype=bool)
    in_segment[segment] = True
    _, _, preds = csr_rows(*cdag.pred_csr(), segment)
    reads = np.zeros(cdag.n_vertices, dtype=bool)
    reads[preds] = True
    reads &= ~in_segment
    _, pos, succs = csr_rows(cdag.succ_indptr, cdag.succ_indices, segment)
    writes = np.zeros(cdag.n_vertices, dtype=bool)
    writes[segment[pos[~in_segment[succs]]]] = True
    return np.flatnonzero(reads), np.flatnonzero(writes)


def meta_boundary(
    cdag: CDAG, meta: MetaVertexPartition, segment: np.ndarray
) -> np.ndarray:
    """``δ'(S') = R'(S') ∪ W'(S')``: Definition 1 lifted to the
    segment's meta-closure ``S'``.  Returned as sorted meta roots.

    ``R'(S')`` is the metas of predecessors outside the closure;
    ``W'(S')`` is the metas of closure vertices with an edge leaving it.
    The closure holds every vertex of its metas, so the two are disjoint,
    and a meta is one value however many copies it has.  Each meta of
    ``R'`` holds a value the closure consumes, so it sits in cache when
    the segment starts or is read during it; each meta of ``W'`` holds a
    value consumed outside the closure, so it sits in cache when the
    segment ends or is written during it.  A cache of ``M`` covers at
    most ``M`` of each, which leaves ``|δ'(S')| - 2M`` I/Os per segment.
    A meta counts once however many of its vertices cross the boundary,
    as Definition 1 needs one write per value, not one per consumer.
    The argument is exact for metas whose root the segment computes; a
    meta computed earlier and only copied during the segment is charged
    the same way, and the property tests check that case against Belady
    and LRU runs rather than prove it."""
    closed = meta.closure(segment)
    in_closed = np.zeros(cdag.n_vertices, dtype=bool)
    in_closed[closed] = True
    _, _, preds = csr_rows(*cdag.pred_csr(), closed)
    _, pos, succs = csr_rows(cdag.succ_indptr, cdag.succ_indices, closed)
    boundary = np.zeros(cdag.n_vertices, dtype=bool)
    boundary[meta.label[preds[~in_closed[preds]]]] = True
    boundary[meta.label[closed[pos[~in_closed[succs]]]]] = True
    return np.flatnonzero(boundary)


def counted_mask_section5(cdag: CDAG, k: int) -> np.ndarray:
    """Counted vertices of the Section 5 (Strassen-only) argument: rank
    ``k`` of the decoding graph."""
    mask = np.zeros(cdag.n_vertices, dtype=bool)
    mask[cdag.slab_vertices(Region.DEC, k)] = True
    return mask


def counted_mask_section6(
    cdag: CDAG,
    k: int,
    meta: MetaVertexPartition,
    family: list[int] | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Counted vertices of the Section 6 argument.

    Rank ``k`` of the decoder plus rank ``r-k`` of both encoders,
    restricted to a mutually input-disjoint family of subcomputations
    (Lemma 1).  Returns ``(mask, family)``.
    """
    if family is None:
        family = input_disjoint_family(cdag, k, meta)
    mask = np.zeros(cdag.n_vertices, dtype=bool)
    for i in family:
        sub = Subcomputation(cdag, k, i)
        mask[sub.inputs("A")] = True
        mask[sub.inputs("B")] = True
        mask[sub.outputs()] = True
    return mask, family


def partition_schedule(
    cdag: CDAG,
    schedule: np.ndarray,
    counted_mask: np.ndarray,
    threshold: int,
    meta: MetaVertexPartition | None = None,
) -> list[np.ndarray]:
    """Cut the schedule into minimal segments with at least ``threshold``
    counted vertices each (the final segment may fall short).

    Per the paper's convention, putting ``v`` into ``S`` also puts every
    vertex of ``v``'s meta-vertex into ``S``; counted vertices are
    credited to the segment in which their meta-vertex first appears.
    Segments are returned as arrays of *scheduled* vertices (the meta
    closure is applied by the analysis functions, not here).

    Each counted vertex is credited at the first step its meta (or, with
    no partition, the vertex itself) appears; the credits are summed
    per step and accumulated, and each cut is the first step at which
    the running total reaches the previous cut's total plus
    ``threshold``.
    """
    check_positive_int(threshold, "threshold")
    schedule = np.asarray(schedule, dtype=np.int64)
    n_steps = len(schedule)
    if n_steps == 0:
        raise PartitionError("empty schedule cannot be partitioned")
    label = meta.label if meta is not None else np.arange(cdag.n_vertices)
    first = np.full(cdag.n_vertices, n_steps, dtype=np.int64)
    np.minimum.at(first, label[schedule], np.arange(n_steps))
    credit = first[label[np.flatnonzero(counted_mask)]]
    total = np.cumsum(np.bincount(credit, minlength=n_steps + 1)[:n_steps])
    segments: list[np.ndarray] = []
    start, base = 0, 0
    while start < n_steps:
        cut = int(np.searchsorted(total, base + threshold))
        if cut >= n_steps:
            segments.append(schedule[start:])
            break
        segments.append(schedule[start : cut + 1])
        start, base = cut + 1, int(total[cut])
    return segments


@dataclass(frozen=True)
class SegmentRecord:
    """Per-segment measurements (one row of the E8 report)."""

    index: int
    size: int
    counted: int
    boundary: int          # |δ(S)| on vertices
    meta_boundary: int     # |δ'(S')| on meta-vertices
    implied_io: int        # max(0, meta_boundary - 2M)

    def satisfies_eq2(self) -> bool:
        """Equation (2): |δ'(S')| >= |S̄| / 12."""
        return self.meta_boundary * 12 >= self.counted


class SegmentAnalysis:
    """Run the paper's Section 6 counting on a concrete execution.

    Parameters
    ----------
    cdag, meta:
        The graph and its meta-vertex partition.
    cache_size:
        ``M``; determines ``k`` and the segment threshold.
    k:
        Override the paper's ``k = ceil(log_a 72 M)``; defaults to the
        largest feasible value ``<= r`` satisfying the paper's choice.
    threshold:
        Counted vertices per segment; paper uses ``36 M``.
    """

    def __init__(
        self,
        cdag: CDAG,
        meta: MetaVertexPartition,
        cache_size: int,
        k: int | None = None,
        threshold: int | None = None,
    ):
        check_positive_int(cache_size, "cache_size")
        self.cdag = cdag
        self.meta = meta
        self.cache_size = cache_size
        if k is None:
            k = paper_k_section6(cdag.a, cache_size)
            if k > cdag.r:
                raise PartitionError(
                    f"paper's k = ceil(log_a 72M) = {k} exceeds r = {cdag.r}; "
                    "use a larger graph or smaller cache"
                )
        self.k = k
        self.threshold = threshold if threshold is not None else 36 * cache_size
        self.counted_mask, self.family = counted_mask_section6(cdag, self.k, meta)

    def analyze(self, schedule) -> list[SegmentRecord]:
        """Partition the schedule and measure every segment."""
        segments = partition_schedule(
            self.cdag,
            np.asarray(schedule, dtype=np.int64),
            self.counted_mask,
            self.threshold,
            meta=self.meta,
        )
        records = []
        counted_seen = np.zeros(self.cdag.n_vertices, dtype=bool)
        for idx, seg in enumerate(segments):
            closed = self.meta.closure(seg)
            fresh = closed[self.counted_mask[closed] & ~counted_seen[closed]]
            counted_seen[fresh] = True
            r_set, w_set = boundary_sets(self.cdag, closed)
            mb = meta_boundary(self.cdag, self.meta, seg)
            records.append(
                SegmentRecord(
                    index=idx,
                    size=len(seg),
                    counted=int(len(fresh)),
                    boundary=len(r_set) + len(w_set),
                    meta_boundary=len(mb),
                    implied_io=max(0, len(mb) - 2 * self.cache_size),
                )
            )
        return records

    def implied_lower_bound(self, schedule) -> int:
        """Total I/O the segment argument certifies for this execution:
        complete segments contribute at least M each once
        ``|δ'(S')| >= 3M`` — we report the measured
        ``sum(max(0, |δ'| - 2M))``, which is the argument's actual
        guarantee per segment."""
        return sum(rec.implied_io for rec in self.analyze(schedule))

