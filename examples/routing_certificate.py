"""Construct and verify the paper's Routing Theorem certificate.

Walks the full pipeline of Section 7 for a chosen algorithm:

1. the Hall graph H and the capacity-n0 matching (Lemma 5 / Theorem 3),
2. chains for all guaranteed dependencies with Claim-2 lifting
   (Lemma 3),
3. the concatenation routing over all input-output pairs (Lemma 4),
4. the verified 6 a^k bound, per vertex and per meta-vertex (Theorem 2),

and prints what was measured vs what the paper claims.

Run:  python examples/routing_certificate.py [algorithm] [k]
      e.g. python examples/routing_certificate.py laderman 1
"""

import sys
from collections import Counter

from repro.bilinear import by_name, strassen
from repro.cdag import build_cdag, compute_metavertices
from repro.routing import (
    base_matching,
    chain_usage_counts,
    hall_graph,
    lemma3_routing,
    theorem2_certificate,
)
from repro.utils.tables import TextTable


def main(name: str = "strassen", k: int = 2) -> None:
    alg = by_name(name) if name != "strassen" else strassen()
    print(f"Routing certificate for {alg.name}, k={k} "
          f"(a={alg.a}, b={alg.b}, n0={alg.n0})\n")

    # Step 1: Hall matching on the base graph.
    for side in ("A", "B"):
        deps, adjacency = hall_graph(alg, side)
        matching = base_matching(alg, side)
        loads = Counter(matching.values())
        print(f"Hall matching side {side}: {len(deps)} dependencies -> "
              f"{alg.b} multiplications, max load "
              f"{max(loads.values())} (capacity n0 = {alg.n0})")

    # Steps 2-4: the full certificate.
    cert = theorem2_certificate(alg, k)
    table = TextTable(["quantity", "paper claim", "measured"])
    table.add_row(["paths (|In| x |Out|)", 2 * alg.a**k * alg.a**k,
                   cert.report.n_paths])
    table.add_row(["Lemma 3 max vertex hits", f"<= {2 * alg.n0**k}",
                   cert.lemma3_max_hits])
    table.add_row(["Lemma 4 chain usage", f"= {3 * alg.n0**k}",
                   "exact" if cert.chains_used_exactly_3n0k else "VIOLATED"])
    table.add_row(["Theorem 2 vertex hits", f"<= {cert.claimed_m}",
                   cert.report.max_vertex_hits])
    table.add_row(["Theorem 2 meta-vertex hits", f"<= {cert.claimed_m}",
                   cert.report.max_meta_hits])
    print()
    print(table.render())
    print(f"\nCertificate verified: {cert.report.within_bound}")
    if not cert.single_use:
        print("note: this algorithm violates the single-use assumption; "
              "the verified certificate is empirical evidence for the "
              "paper's Section-8 conjecture.")

    # Bonus: show one concrete chain.
    g = build_cdag(alg, k)
    chains = lemma3_routing(g)
    path = chains.paths[0]
    from repro.cdag import describe_vertex

    print("\nA guaranteed-dependence chain (input -> ... -> output):")
    for v in path.tolist():
        print(f"  {describe_vertex(g, v)}")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "strassen"
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    main(name, k)
