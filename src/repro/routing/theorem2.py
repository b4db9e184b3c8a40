"""Theorem 2 (Routing Theorem): the ``6 a^k``-routing between all inputs
and outputs of ``G_k``.

Assembly: Lemma 3's ``2 n0^k``-routing of guaranteed dependencies,
composed through Lemma 4's chain concatenations (each chain reused
``3 n0^k`` times), gives every vertex at most
``2 n0^k * 3 n0^k = 6 a^k`` hits; because every meta-vertex is an
upward tree whose non-root members are copies, the same bound holds per
meta-vertex.  All three claims are machine-verified by
:func:`theorem2_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.cdag.builder import build_cdag
from repro.cdag.graph import CDAG
from repro.cdag.metavertex import MetaVertexPartition, compute_metavertices
from repro.errors import RoutingError
from repro.routing.lemma3 import lemma3_routing
from repro.routing.lemma4 import lemma4_routing
from repro.routing.paths import Routing
from repro.routing.verify import RoutingReport, verify_routing
from repro.telemetry.spans import span

__all__ = ["theorem2_bound", "theorem2_routing", "theorem2_certificate"]


def theorem2_bound(alg: BilinearAlgorithm, k: int) -> int:
    """The claimed ``m``: ``6 a^k``."""
    return 6 * alg.a**k


def theorem2_routing(
    cdag_or_alg, k: int | None = None, allow_assumption_violation: bool = False
) -> Routing:
    """Construct the Theorem-2 routing between ``In`` and ``Out``.

    Accepts either a standalone ``G_k`` CDAG or ``(algorithm, k)``.
    Requires the single-use assumption (checked); for violating
    algorithms the Hall step may still succeed, but the theorem's
    *guarantee* does not apply — a :class:`RoutingError` is raised to
    keep certificates honest (the paper's Section 8 sketches the
    extension).  Pass ``allow_assumption_violation=True`` to build the
    routing anyway and rely on empirical verification.
    """
    if isinstance(cdag_or_alg, CDAG):
        cdag = cdag_or_alg
    else:
        if k is None:
            raise RoutingError("pass k when giving an algorithm")
        cdag = build_cdag(cdag_or_alg, k)
    if not cdag.alg.satisfies_single_use() and not allow_assumption_violation:
        raise RoutingError(
            f"{cdag.alg.name!r} violates the single-use assumption; "
            "Theorem 2's routing guarantee does not apply"
        )
    with span("routing.theorem2", alg=cdag.alg.name, k=cdag.r) as sp:
        chains = lemma3_routing(cdag)
        routing = lemma4_routing(cdag, chains)
        routing.label = f"theorem2 k={cdag.r} ({cdag.alg.name})"
        sp.add("chains", len(chains))
        sp.add("paths", len(routing))
        return routing


@dataclass(frozen=True)
class Theorem2Certificate:
    """Verified certificate: the routing exists and meets its bounds."""

    algorithm: str
    k: int
    claimed_m: int
    report: RoutingReport
    lemma3_max_hits: int
    chains_used_exactly_3n0k: bool
    #: whether the paper's single-use assumption holds for the base graph
    #: (when False, the verified certificate is *empirical* evidence
    #: beyond the theorem's stated scope — cf. the paper's Section 8).
    single_use: bool = True


def theorem2_certificate(
    alg: BilinearAlgorithm, k: int, meta: MetaVertexPartition | None = None
) -> Theorem2Certificate:
    """Build and fully verify the Theorem-2 routing for ``G_k``.

    Checks, in order: Lemma 3's ``2 n0^k`` vertex bound; Lemma 4's
    exact ``3 n0^k`` chain-usage counts; the composed routing's path
    validity, pair coverage (every input-output pair exactly once), and
    ``6 a^k`` vertex *and* meta-vertex bounds.
    """
    from repro.routing.lemma4 import chain_usage_counts

    with span("routing.certificate", alg=alg.name, k=k) as sp:
        cdag = build_cdag(alg, k)
        if meta is None:
            meta = compute_metavertices(cdag)

        chains = lemma3_routing(cdag)
        lemma3_bound = 2 * alg.n0**k
        lemma3_report = verify_routing(cdag, chains, lemma3_bound, meta=meta)

        usage = chain_usage_counts(cdag, chains)
        expected_usage = 3 * alg.n0**k
        usage_exact = all(count == expected_usage for count in usage.values())
        if not usage_exact:
            raise RoutingError(
                "Lemma 4 chain usage is not exactly 3 n0^k for some chain"
            )

        routing = lemma4_routing(cdag, chains)
        outputs = cdag.outputs().tolist()
        expected_pairs = {(v, w) for v in cdag.inputs().tolist() for w in outputs}
        report = verify_routing(
            cdag,
            routing,
            theorem2_bound(alg, k),
            meta=meta,
            expected_pairs=expected_pairs,
        )
        # Max-hit ledgers: the measured extremes the 6a^k claim is
        # checked against, plus Lemma 4's per-chain reuse count.
        sp.add("paths", report.n_paths)
        sp.add("max_vertex_hits", report.max_vertex_hits)
        sp.add("max_meta_hits", report.max_meta_hits)
        sp.add("lemma3_max_hits", lemma3_report.max_vertex_hits)
        sp.add("chain_reuse", expected_usage)
    return Theorem2Certificate(
        algorithm=alg.name,
        k=k,
        claimed_m=theorem2_bound(alg, k),
        report=report,
        lemma3_max_hits=lemma3_report.max_vertex_hits,
        chains_used_exactly_3n0k=usage_exact,
        single_use=alg.satisfies_single_use(),
    )
