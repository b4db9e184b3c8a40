"""The Hall-matching step of Lemma 3 (paper, Section 7.2, Figure 8).

For the base graph restricted to one encoder side (``G'_1``): build the
bipartite graph ``H = (X, Y)`` where ``X`` is the set of base-level
guaranteed dependencies ``(e_in, e_out)`` (entry indices with matching
row for side A / matching column for side B) and ``Y`` the ``b``
middle-rank vertices (one per multiplication); ``x ~ y_m`` iff a chain
through multiplication ``m`` exists, i.e. the encoder coefficient at
``(m, e_in)`` and the decoder coefficient at ``(e_out, m)`` are both
nonzero.

Lemma 5 guarantees Hall's condition ``|N(D)| >= |D| / n0`` for every
``D ⊆ X`` — via Winograd's matrix-vector bound — so the many-to-one
matching of Theorem 3 (capacity ``n0``) always exists for a *correct*
algorithm.  :func:`base_matching` computes it;
:func:`check_hall_condition` verifies the condition exhaustively (per row
class, as in the paper's proof of Lemma 5) for experiment E7.
"""

from __future__ import annotations

from itertools import combinations

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.errors import HallConditionError
from repro.telemetry.spans import span
from repro.utils.flow import capacitated_matching, hall_violator
from repro.utils.indexing import pair_index, pair_unindex

__all__ = [
    "base_dependencies",
    "hall_graph",
    "base_matching",
    "check_hall_condition",
]


def base_dependencies(alg: BilinearAlgorithm, side: str) -> list[tuple[int, int]]:
    """Base-level guaranteed dependencies as entry-index pairs.

    Side A: ``(idx(i,j), idx(i,j'))`` for all i, j, j' — row classes.
    Side B: ``(idx(i,j), idx(i',j))`` for all i, j, i' — column classes.
    Ordered deterministically.
    """
    n0 = alg.n0
    out: list[tuple[int, int]] = []
    if side == "A":
        for i in range(n0):
            for j in range(n0):
                for j2 in range(n0):
                    out.append((pair_index(i, j, n0), pair_index(i, j2, n0)))
    elif side == "B":
        for i in range(n0):
            for j in range(n0):
                for i2 in range(n0):
                    out.append((pair_index(i, j, n0), pair_index(i2, j, n0)))
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return out


def hall_graph(
    alg: BilinearAlgorithm, side: str
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The bipartite graph ``H``: dependencies and their adjacency to
    multiplications.

    Returns ``(dependencies, adjacency)`` where ``adjacency[x]`` lists
    the multiplications ``m`` through which a chain for dependency ``x``
    may pass.
    """
    E = alg.U if side == "A" else alg.V
    deps = base_dependencies(alg, side)
    adjacency = [
        sorted(
            int(m)
            for m in range(alg.b)
            if E[m, e_in] != 0 and alg.W[e_out, m] != 0
        )
        for e_in, e_out in deps
    ]
    return deps, adjacency


def base_matching(alg: BilinearAlgorithm, side: str) -> dict[tuple[int, int], int]:
    """The many-to-one matching of Theorem 3 with capacity ``n0``.

    Maps each base dependency ``(e_in, e_out)`` to the multiplication its
    chain is routed through; every multiplication receives at most ``n0``
    dependencies.

    Raises
    ------
    HallConditionError
        If no matching exists.  By Lemma 5 this certifies the input is
        *not* a correct single-use matrix-multiplication algorithm.
    """
    with span("routing.hall.base_matching", alg=alg.name, side=side) as sp:
        deps, adjacency = hall_graph(alg, side)
        sp.add("dependencies", len(deps))
        sp.add("multiplications", alg.b)
        assignment = capacitated_matching(adjacency, alg.b, alg.n0)
    if assignment is None:
        violator = hall_violator(adjacency, alg.b, alg.n0)
        D = [deps[x] for x in violator[0]] if violator else None
        raise HallConditionError(
            f"Hall condition fails for {alg.name!r} side {side}: some "
            f"dependency set has too small a neighborhood (Lemma 5 "
            "implies the algorithm is not a correct single-use matrix "
            "multiplication)",
            violating_set=D,
            neighborhood=violator[1] if violator else None,
        )
    return {dep: m for dep, m in zip(deps, assignment)}


def check_hall_condition(
    alg: BilinearAlgorithm, side: str, exhaustive_limit: int = 20
) -> dict:
    """Verify Hall's condition ``|N(D)| >= |D| / n0``.

    Follows the paper's proof structure: it suffices to check subsets of
    each row class ``D_i`` (dependencies sharing the input row ``i``) —
    ``|D_i| = n0^2`` — because a global violator yields a per-class one.
    All ``2^(n0^2)`` subsets of every class are enumerated when that is
    at most ``2^exhaustive_limit``; the matching feasibility (Theorem 3)
    is checked regardless and doubles as the global certificate.

    Returns a report with ``holds``, the minimum observed ratio
    ``|N(D)| * n0 / |D|`` (>= 1 iff the condition holds with the paper's
    capacity), and the matching's load histogram.
    """
    n0 = alg.n0
    deps, adjacency = hall_graph(alg, side)
    matching_ok = capacitated_matching(adjacency, alg.b, n0) is not None

    min_ratio = float("inf")
    worst = None
    class_size = n0 * n0
    if class_size <= exhaustive_limit:
        # Row classes: dependencies grouped by input row (side A) /
        # input column (side B).
        for cls in range(n0):
            members = [
                x
                for x, (e_in, _) in enumerate(deps)
                if (pair_unindex(e_in, n0)[0] if side == "A" else pair_unindex(e_in, n0)[1])
                == cls
            ]
            for size in range(1, len(members) + 1):
                for D in combinations(members, size):
                    neighborhood = set()
                    for x in D:
                        neighborhood.update(adjacency[x])
                    ratio = len(neighborhood) * n0 / size
                    if ratio < min_ratio:
                        min_ratio = ratio
                        worst = D
    return {
        "holds": matching_ok,
        "min_ratio": min_ratio,
        "worst_set_size": len(worst) if worst else 0,
        "exhaustive": class_size <= exhaustive_limit,
    }
