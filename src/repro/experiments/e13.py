"""E13 — Ablations and the Section-8 extension (beyond the paper's
mandatory scope).

Four studies the paper's design decisions call for:

1. **Section-8 conjecture, value-class form.**  For algorithms that
   violate the single-use assumption, the paper conjectures the routing
   bound survives when "meta-vertices" are taken as full value-equality
   classes.  We build value classes by exact evaluation and measure the
   routing's value-class hit counts — the precise quantity the extension
   needs — for the violating algorithms in the catalog.
2. **Eviction-policy ablation.**  The machine model is policy-free (the
   bound quantifies over I/O placements); how much do LRU/FIFO give away
   vs offline MIN on each schedule family?
3. **Segment-threshold sensitivity.**  The paper picks |S̄| = 36M without
   optimising constants; sweep the threshold and report the certified
   lower bound's response.
4. **Cache-line ablation.**  The model moves single words; real caches
   move lines.  Trace-simulate blocked classical I/O across line sizes
   to quantify the modelling gap.
"""

from __future__ import annotations

import numpy as np

from repro.bilinear import strassen, strassen_x_classical
from repro.bilinear.synthetic import with_duplicate_product
from repro.cdag import (
    MetaVertexPartition,
    build_cdag,
    compute_metavertices,
    compute_value_classes,
)
from repro.experiments.harness import ExperimentResult, register
from repro.pebbling import CacheExecutor, SegmentAnalysis
from repro.routing import theorem2_bound, theorem2_routing
from repro.schedules import (
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.tracesim import FullyAssociativeLRU, trace_blocked
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E13")
def run(seed: int = 2) -> ExperimentResult:
    checks: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # 1. Section-8 conjecture at value-class granularity.
    # ------------------------------------------------------------------
    s8_table = TextTable(
        ["algorithm", "k", "value classes", "6a^k", "max class hits"],
        title="E13.1: Section-8 conjecture — value-class hit counts for "
              "single-use violators",
    )
    violators = [
        (strassen_x_classical(), 1),
        (with_duplicate_product(strassen(), product=0), 2),
    ]
    for alg, k in violators:
        g = build_cdag(alg, k)
        classes = compute_value_classes(g, seed=7, trials=3)
        routing = theorem2_routing(g, allow_assumption_violation=True)
        # Class ids are vertex ids (smallest member), so the classes
        # form a meta-vertex partition and the meta-hit ledger applies.
        hits = routing.meta_hits(MetaVertexPartition(g, classes))
        bound = theorem2_bound(alg, k)
        s8_table.add_row(
            [alg.name, k, len(np.unique(classes)), bound, int(hits.max())]
        )
        checks[f"{alg.name}: value-class hits within 6a^k"] = (
            int(hits.max()) <= bound
        )

    # Consistency: value classes refine-or-equal copy metas on a
    # single-use algorithm (same meta => same class).
    g = build_cdag(strassen(), 2)
    meta = compute_metavertices(g)
    classes = compute_value_classes(g, seed=7, trials=3)
    coarser = all(
        len(np.unique(classes[meta.members(int(root))])) == 1
        for root in meta.roots()
    )
    checks["value classes coarsen copy metas"] = coarser

    # ------------------------------------------------------------------
    # 2. Eviction-policy ablation.
    # ------------------------------------------------------------------
    g3 = build_cdag(strassen(), 3)
    policy_table = TextTable(
        ["schedule", "M", "belady (MIN)", "lru", "fifo", "lru/MIN",
         "fifo/MIN"],
        title="E13.2: eviction-policy ablation (I/O totals)",
    )
    schedules = [
        ("recursive", recursive_schedule(g3)),
        ("rank-order", rank_order_schedule(g3)),
        ("random", random_topological_schedule(g3, seed=seed)),
    ]
    executor3 = CacheExecutor(g3)
    for name, sched in schedules:
        swept = executor3.run_many(
            sched, (16, 64), ("belady", "lru", "fifo"), validate=False
        )
        for M in (16, 64):
            belady = swept[(M, "belady")]
            lru = swept[(M, "lru")]
            fifo = swept[(M, "fifo")]
            policy_table.add_row(
                [name, M, belady.total, lru.total, fifo.total,
                 round(lru.total / belady.total, 2),
                 round(fifo.total / belady.total, 2)]
            )
            checks[f"{name} M={M}: MIN minimises reads"] = (
                belady.reads <= lru.reads
            )

    # ------------------------------------------------------------------
    # 3. Segment-threshold sensitivity.
    # ------------------------------------------------------------------
    meta3 = compute_metavertices(g3)
    sched = recursive_schedule(g3)
    threshold_table = TextTable(
        ["threshold (|S̄| per segment)", "segments", "certified I/O",
         "eq2 holds"],
        title="E13.3: segment-threshold sensitivity at M = 8 (paper uses 36M)",
    )
    certified = {}
    for threshold in (12, 24, 48, 96):
        analysis = SegmentAnalysis(g3, meta3, cache_size=8, k=1,
                                   threshold=threshold)
        records = analysis.analyze(sched)
        total = sum(rec.implied_io for rec in records)
        certified[threshold] = total
        threshold_table.add_row(
            [threshold, len(records), total,
             "yes" if all(rec.satisfies_eq2() for rec in records) else "no"]
        )
        checks[f"threshold {threshold}: eq2 holds"] = all(
            rec.satisfies_eq2() for rec in records
        )
    checks["certified bound responds to threshold"] = (
        len(set(certified.values())) > 1
    )

    # ------------------------------------------------------------------
    # 4. Cache-line ablation.
    # ------------------------------------------------------------------
    line_table = TextTable(
        ["line size (words)", "capacity (words)", "misses", "writebacks",
         "word-I/O equivalent"],
        title="E13.4: cache-line granularity (blocked classical, n=32)",
    )
    n, words = 32, 192
    word_io = {}
    for line in (1, 2, 4, 8):
        cache = FullyAssociativeLRU(words // line, line_size=line)
        stats = cache.run(trace_blocked(n, 6))
        word_io[line] = stats.io * line
        line_table.add_row(
            [line, words, stats.misses, stats.writebacks, word_io[line]]
        )
    checks["line size 2 within 1% of word-I/O at line size 1"] = (
        abs(word_io[2] - word_io[1]) * 100 <= word_io[1]
    )
    checks["line size 8 costs >= 2x word-I/O at line size 1"] = (
        word_io[8] >= 2 * word_io[1]
    )

    return ExperimentResult(
        experiment_id="E13",
        title="Ablations and the Section-8 extension",
        tables=[s8_table, policy_table, threshold_table, line_table],
        checks=checks,
    )
