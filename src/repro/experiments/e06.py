"""E6 — Lemma 3 / Claim 2 / Figures 7-8: Hall matching and recursive
lifting.

Build the bipartite graph ``H``, compute the capacity-``n0`` matching
(Theorem 3), and verify the lifted chain routing stays within ``n0^k``
per side (``2 n0^k`` combined) as ``k`` grows — the ``m^k`` law of
Claim 2.
"""

from __future__ import annotations

from collections import Counter

from repro.bilinear import classical, laderman, strassen, winograd
from repro.cdag import build_cdag
from repro.experiments.harness import ExperimentResult, register
from repro.routing import base_matching, hall_graph, lemma3_routing, verify_routing
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E6")
def run(k_max: int = 3) -> ExperimentResult:
    matching_table = TextTable(
        ["algorithm", "side", "|X| (deps)", "|Y| (mults)", "max load",
         "capacity n0"],
        title="E6: Hall matchings on G'_1 (Figure 8)",
    )
    checks: dict[str, bool] = {}
    for alg in (strassen(), winograd(), laderman(), classical(2)):
        for side in ("A", "B"):
            deps, adjacency = hall_graph(alg, side)
            matching = base_matching(alg, side)
            loads = Counter(matching.values())
            matching_table.add_row(
                [alg.name, side, len(deps), alg.b, max(loads.values()),
                 alg.n0]
            )
            checks[f"{alg.name}/{side}: matching exists"] = len(matching) == len(deps)
            checks[f"{alg.name}/{side}: load <= n0"] = (
                max(loads.values()) <= alg.n0
            )

    lift_table = TextTable(
        ["algorithm", "k", "chains", "claimed 2n0^k", "measured max"],
        title="E6: Claim 2 lifting — per-vertex hits of the chain routing",
    )
    for alg in (strassen(),):
        for k in range(1, k_max + 1):
            g = build_cdag(alg, k)
            chains = lemma3_routing(g)
            bound = 2 * alg.n0**k
            report = verify_routing(g, chains, bound)
            lift_table.add_row(
                [alg.name, k, len(chains), bound, report.max_vertex_hits]
            )
            checks[f"{alg.name} k={k}: chain routing within 2n0^k"] = (
                report.within_bound
            )
    return ExperimentResult(
        experiment_id="E6",
        title="Lemma 3 & Claim 2: Hall matching and recursive lifting",
        tables=[matching_table, lift_table],
        checks=checks,
    )
