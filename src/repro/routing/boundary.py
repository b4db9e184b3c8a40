"""Boundary-crossing analysis (paper Definition 3 and the counting core
of Sections 5-6).

Given a routing and a vertex set ``S``, a path is *boundary-crossing*
when it touches both ``S`` and its complement; each such path contains a
crossing edge whose outside endpoint lies in ``δ(S)``.  The proofs count
boundary-crossing paths from below (at least ``a^k/2 * |S̄_i|`` per
subcomputation) and divide by the routing's ``m`` to bound ``|δ'(S')|``.

This module measures both sides on concrete routings and segments, so
experiments E3/E4/E8 can confirm the chain of inequalities numerically:

    #crossing paths >= (1/2) a^k |S̄_i|          (the case analysis)
    |δ(S_i)| >= #crossing paths / m             (pigeonhole over hits)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.paths import Routing

__all__ = ["BoundaryCount", "count_boundary_crossings", "crossing_delta_vertices"]


@dataclass(frozen=True)
class BoundaryCount:
    """Measured boundary-crossing statistics for one (routing, S) pair."""

    n_paths: int
    n_crossing: int
    #: paths from a source in S to a target outside S or vice versa
    n_endpoint_split: int
    #: distinct boundary vertices hit by crossing edges (outside side)
    n_delta_from_crossings: int


def _delta_member(routing: Routing, u: int, v: int, in_s: np.ndarray) -> int:
    """The δ(S) member contributed by a crossing edge between ``u`` and
    ``v`` (one inside S, one outside).

    Per Definition 1: if the CDAG edge points *into* S, its outside
    endpoint is in ``R(S)``; if it points *out of* S, its inside
    endpoint is in ``W(S)``.  (The paper's "the vertex of this edge that
    is not in S lies in δ(S)" is shorthand for the same accounting.)
    """
    cdag = routing.cdag
    inside, outside = (u, v) if in_s[u] else (v, u)
    # Does the dependence edge point into S (outside -> inside)?
    if outside in cdag.predecessors(inside):
        return int(outside)  # R(S)
    return int(inside)  # W(S)


def count_boundary_crossings(
    routing: Routing, in_s: np.ndarray
) -> BoundaryCount:
    """Count boundary-crossing paths of the routing w.r.t. mask ``in_s``.

    ``in_s`` is a boolean mask over the CDAG's vertices.
    """
    n_crossing = 0
    n_split = 0
    delta: set[int] = set()
    for path, (src, dst) in zip(routing.paths, routing.endpoints):
        flags = in_s[path]
        if flags.any() and not flags.all():
            n_crossing += 1
            # Associate one crossing edge to the path, as the proof does.
            switch = int(np.nonzero(np.diff(flags.astype(np.int8)))[0][0])
            delta.add(
                _delta_member(
                    routing, int(path[switch]), int(path[switch + 1]), in_s
                )
            )
        if bool(in_s[src]) != bool(in_s[dst]):
            n_split += 1
    return BoundaryCount(
        n_paths=len(routing),
        n_crossing=n_crossing,
        n_endpoint_split=n_split,
        n_delta_from_crossings=len(delta),
    )


def crossing_delta_vertices(routing: Routing, in_s: np.ndarray) -> np.ndarray:
    """δ(S) members witnessed by *all* crossing edges of all paths —
    a lower-bound witness set for ``δ(S)``."""
    delta: set[int] = set()
    for path in routing.paths:
        flags = in_s[path]
        if flags.any() and not flags.all():
            switches = np.nonzero(np.diff(flags.astype(np.int8)))[0]
            for switch in switches.tolist():
                delta.add(
                    _delta_member(
                        routing, int(path[switch]), int(path[switch + 1]), in_s
                    )
                )
    return np.array(sorted(delta), dtype=np.int64)
