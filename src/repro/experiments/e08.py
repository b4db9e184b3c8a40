"""E8 — The segment argument on real executions (Equations 1-2,
Fact 1, Lemmas 1-2).

Partition concrete schedules into segments with ``|S̄|`` counted
vertices and measure ``|δ'(S')|`` on every segment, confirming
Equation (2)'s ``|δ'(S')| >= |S̄| / 12`` — for good (recursive), bad
(rank-order) and adversarial (random) schedules.  Also records Fact 1's
copy counts and the Lemma-1 family fraction.
"""

from __future__ import annotations

from repro.bilinear import strassen
from repro.cdag import (
    build_cdag,
    compute_metavertices,
    input_disjoint_family,
    subcomputation_count,
    verify_fact1,
)
from repro.experiments.harness import ExperimentResult, register
from repro.pebbling import SegmentAnalysis, min_cache_size
from repro.schedules import (
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E8")
def run(
    r: int = 3, k: int = 1, threshold: int = 24, seed: int = 13
) -> ExperimentResult:
    alg = strassen()
    g = build_cdag(alg, r)
    meta = compute_metavertices(g)

    checks: dict[str, bool] = {}
    fact1 = verify_fact1(g, k)
    checks[f"Fact 1: G_{{r,{k}}} = b^(r-k) disjoint copies"] = fact1["ok"]
    checks["Fact 1: copy count"] = (
        subcomputation_count(g, k) == alg.b ** (r - k)
    )
    family = input_disjoint_family(g, k, meta)
    checks["Lemma 1: family fraction >= 1/b^2"] = (
        len(family) * alg.b**2 >= subcomputation_count(g, k)
    )

    analysis = SegmentAnalysis(g, meta, cache_size=min_cache_size(g),
                               k=k, threshold=threshold)
    table = TextTable(
        ["schedule", "segments", "min |S̄|", "min |δ'|", "min ratio",
         "eq2 floor 1/12", "all hold"],
        title="E8: Equation (2) on real executions",
    )
    schedules = [
        ("recursive", recursive_schedule(g)),
        ("rank-order", rank_order_schedule(g)),
        ("random", random_topological_schedule(g, seed=seed)),
    ]
    for name, sched in schedules:
        records = analysis.analyze(sched)
        complete = [rec for rec in records if rec.counted >= threshold]
        ratios = [
            rec.meta_boundary / rec.counted
            for rec in records
            if rec.counted > 0
        ]
        all_hold = all(rec.satisfies_eq2() for rec in records)
        table.add_row(
            [name, len(records),
             min((rec.counted for rec in records), default=0),
             min((rec.meta_boundary for rec in records), default=0),
             round(min(ratios), 4) if ratios else "-",
             round(1 / 12, 4), "yes" if all_hold else "no"]
        )
        checks[f"{name}: eq (2) holds on every segment"] = all_hold
        checks[f"{name}: complete segments reach threshold"] = all(
            rec.counted >= threshold for rec in records[:-1]
        )

    return ExperimentResult(
        experiment_id="E8",
        title="Segment argument measured on executions",
        tables=[table],
        checks=checks,
        data={"family_size": len(family)},
    )
