"""E3 — Claim 1 routing in Strassen's decoding graph (Section 5,
Figures 3-4).

Construct the ``D_k`` routing for k = 1..k_max and verify the
``11 * 7^k`` hit bound; record the measured maximum (the paper "did not
optimize for the constant factor" — the slack is part of the record).
Also verify the Section-5 case analysis on a concrete segment: at least
``|S̄| * 7^k / 2`` boundary-crossing paths when at most half the rank-k
vertices are in S.
"""

from __future__ import annotations

import numpy as np

from repro.bilinear import strassen, winograd
from repro.cdag import build_cdag
from repro.experiments.harness import ExperimentResult, register
from repro.routing import claim1_bound, claim1_routing, count_boundary_crossings, verify_routing
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E3")
def run(k_max: int = 3) -> ExperimentResult:
    table = TextTable(
        ["algorithm", "k", "paths", "claimed 11*7^k", "measured max",
         "slack"],
        title="E3: Claim 1 decoder routing (Section 5)",
    )
    checks: dict[str, bool] = {}
    for alg in (strassen(), winograd()):
        for k in range(1, k_max + 1):
            g = build_cdag(alg, k)
            routing = claim1_routing(g)
            bound = claim1_bound(alg, k)
            report = verify_routing(g, routing, bound)
            table.add_row(
                [alg.name, k, report.n_paths, bound,
                 report.max_vertex_hits,
                 round(bound / report.max_vertex_hits, 2)]
            )
            checks[f"{alg.name} k={k}: within 11*7^k"] = report.within_bound
            checks[f"{alg.name} k={k}: one path per (product, output)"] = (
                report.n_paths == alg.b**k * alg.a**k
            )

    # The boundary-crossing case analysis on a quarter-of-outputs segment.
    g = build_cdag(strassen(), 2)
    routing = claim1_routing(g)
    outputs = g.outputs()
    s_size = len(outputs) // 4
    in_s = np.zeros(g.n_vertices, dtype=bool)
    in_s[outputs[:s_size]] = True
    counts = count_boundary_crossings(routing, in_s)
    needed = s_size * 7**2 // 2
    checks["case analysis: >= |S̄| 7^k / 2 crossing paths"] = (
        counts.n_crossing >= needed
    )
    crossing_table = TextTable(
        ["|S̄|", "crossing paths measured", "paper's floor"],
        title="E3: boundary-crossing count (case analysis)",
    )
    crossing_table.add_row([s_size, counts.n_crossing, needed])

    return ExperimentResult(
        experiment_id="E3",
        title="Claim 1: decoder routing and boundary crossings",
        tables=[table, crossing_table],
        checks=checks,
    )
