"""E14 — The three proof techniques side by side (paper Section 2).

The paper situates its contribution against two predecessors:
Hong-Kung's S-partitions/dominators [10] and BDHS's edge expansion [6].
This experiment runs all three on the same executions:

1. **Hong-Kung**: cut real executions every 2M I/Os; measure exact
   minimum-dominator and minimum-set sizes of each phase (min vertex
   cuts via max-flow) — the HK lemma's induced 2M-partition — and the
   lower bound the witnessed partition certifies.
2. **Edge expansion**: applicability verdicts per algorithm (from E12's
   machinery).
3. **Path routing**: the segment-argument certified bound on the same
   executions (from E8's machinery).

The qualitative reproduction target: HK certifies real bounds on
*classical* CDAGs; edge expansion works only for connected base graphs;
the path-routing segment argument certifies bounds for *every*
Strassen-like CDAG, including the disconnected ones.

Each graph gets its own :class:`CacheExecutor` (as in E9, E13 and E15),
not :func:`simulate_io`'s process-wide one, so one run's plan-cache
counters do not depend on the runs before it in the same process.  The
Hong-Kung partition of an execution runs on the executor that measured
it, so each schedule is compiled once.
"""

from __future__ import annotations

from repro.bilinear import classical, strassen
from repro.bounds import (
    expansion_technique_applicable,
    hong_kung_bound_from_partition,
    partition_by_io,
    verify_hk_partition,
)
from repro.cdag import build_cdag, compute_metavertices
from repro.experiments.harness import ExperimentResult, register
from repro.pebbling import CacheExecutor, SegmentAnalysis
from repro.schedules import loop_order_schedule, recursive_schedule
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E14")
def run(M: int = 8) -> ExperimentResult:
    checks: dict[str, bool] = {}

    hk_table = TextTable(
        ["CDAG", "schedule", "measured I/O", "2M-phases",
         "max dominator", "max min-set", "HK certified"],
        title="E14.1: Hong-Kung induced 2M-partitions on real executions",
    )
    cases = [
        ("classical G_3", build_cdag(classical(2), 3), "ijk"),
        ("strassen G_2", build_cdag(strassen(), 2), "recursive"),
        ("strassen G_3", build_cdag(strassen(), 3), "recursive"),
    ]
    for name, g, sched_kind in cases:
        sched = (
            loop_order_schedule(g, "ijk")
            if sched_kind == "ijk"
            else recursive_schedule(g)
        )
        executor = CacheExecutor(g)
        measured = executor.run(sched, M).total
        parts = partition_by_io(g, sched, M, executor=executor)
        report = verify_hk_partition(g, parts, M)
        certified = hong_kung_bound_from_partition(report["n_parts"], M)
        hk_table.add_row(
            [name, sched_kind, measured, report["n_parts"],
             report["max_dominator"], report["max_minimum_set"],
             certified]
        )
        checks[f"{name}: dominators within HK's 3M envelope"] = report[
            "dominator_ok"
        ]
        checks[f"{name}: minimum sets within HK's 3M envelope"] = report[
            "minimum_set_ok"
        ]
        # The witnessed-partition bound is sound (it never exceeds the
        # actual I/O that generated it).
        checks[f"{name}: HK witnessed bound <= measured I/O"] = (
            certified <= measured
        )

    technique_table = TextTable(
        ["technique", "classical", "strassen", "strassen(x)classical+su"],
        title="E14.2: which technique certifies which algorithm",
    )
    from repro.bilinear import strassen_x_classical_su

    exp_s = expansion_technique_applicable(strassen())["applicable"]
    exp_c = expansion_technique_applicable(classical(2))["applicable"]
    exp_x = expansion_technique_applicable(strassen_x_classical_su())[
        "applicable"
    ]
    technique_table.add_row(
        ["S-partitions (HK 1981)", "yes (tight)", "no (no cancellation)",
         "no"]
    )
    technique_table.add_row(
        ["edge expansion (BDHS 2012)", "no" if not exp_c else "yes",
         "yes" if exp_s else "no", "yes" if exp_x else "no"]
    )
    technique_table.add_row(
        ["path routing (this paper)", "n/a (w0=3)", "yes", "yes"]
    )
    checks["expansion applies to strassen only"] = exp_s and not exp_c and not exp_x

    # 3. Path-routing segment bound on the same strassen execution.
    g3 = build_cdag(strassen(), 3)
    meta = compute_metavertices(g3)
    sched = recursive_schedule(g3)
    analysis = SegmentAnalysis(g3, meta, cache_size=M, k=1, threshold=24)
    routing_certified = analysis.implied_lower_bound(sched)
    executor = CacheExecutor(g3)
    measured = executor.run(sched, M, policy="belady").total
    compare_table = TextTable(
        ["certifier", "certified I/O lower bound", "measured I/O (Belady)"],
        title="E14.3: certified bounds on strassen G_3 (recursive schedule)",
    )
    parts = partition_by_io(g3, sched, M, executor=executor)
    compare_table.add_row(
        ["Hong-Kung witnessed partition",
         hong_kung_bound_from_partition(len(parts), M), measured]
    )
    compare_table.add_row(
        ["path-routing segment argument", routing_certified, measured]
    )
    checks["both certified bounds are sound"] = (
        routing_certified <= measured
        and hong_kung_bound_from_partition(len(parts), M) <= measured
    )
    checks["routing segment argument certifies a positive bound"] = (
        routing_certified > 0
    )

    return ExperimentResult(
        experiment_id="E14",
        title="Three techniques: S-partitions, edge expansion, path routing",
        tables=[hk_table, technique_table, compare_table],
        checks=checks,
    )
