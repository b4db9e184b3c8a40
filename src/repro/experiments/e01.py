"""E1 — Base graphs (paper Figure 1 + Section 3 structure).

For every catalog algorithm (and key compositions), build ``G_1`` and
verify the counts the paper states: ``2a`` inputs, ``b`` multiplication
vertices (each with one predecessor per encoder), ``a`` outputs; census
the encoder/decoder connectivity and the copying structure that decides
which earlier technique (if any) applies.
"""

from __future__ import annotations

from repro.bilinear import list_catalog
from repro.bilinear.compose import named_compositions
from repro.bilinear.verify import algorithm_stats
from repro.cdag import build_base_graph, summarize
from repro.experiments.harness import ExperimentResult, register
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E1")
def run() -> ExperimentResult:
    algs = list_catalog() + named_compositions()

    table = TextTable(
        [
            "algorithm", "n0", "b", "omega0", "fast", "adds",
            "encA comps", "encB comps", "dec comps", "single-use",
            "multi-copy",
        ],
        title="E1: base-graph census (Figure 1 / Section 3)",
    )
    structure = TextTable(
        ["algorithm", "|V|", "|E|", "inputs", "products", "outputs",
         "connected"],
        title="E1: G_1 structure counts",
    )

    checks: dict[str, bool] = {}
    for alg in algs:
        stats = algorithm_stats(alg)
        table.add_row(stats.row())
        g = build_base_graph(alg)
        s = summarize(g)
        structure.add_row(
            [s.name, s.n_vertices, s.n_edges, s.n_inputs, s.n_products,
             s.n_outputs, "yes" if s.connected else "no"]
        )
        checks[f"{alg.name}: 2a inputs"] = s.n_inputs == 2 * alg.a
        checks[f"{alg.name}: b products"] = s.n_products == alg.b
        checks[f"{alg.name}: a outputs"] = s.n_outputs == alg.a
        checks[f"{alg.name}: G_1 connected"] = s.connected
        checks[f"{alg.name}: products have 2 preds"] = all(
            len(g.predecessors(int(v))) == 2 for v in g.products()
        )

    # The paper-motivating contrasts.
    from repro.bilinear import strassen, strassen_x_classical

    checks["strassen decoder connected (handled by [6])"] = (
        len(strassen().decoder_components()) == 1
    )
    sxc = strassen_x_classical()
    checks["strassen(x)classical fast but decoder disconnected (needs this paper)"] = (
        sxc.is_strassen_like and len(sxc.decoder_components()) > 1
    )

    return ExperimentResult(
        experiment_id="E1",
        title="Base-graph structure census",
        tables=[table, structure],
        checks=checks,
        data={"n_algorithms": len(algs)},
    )
