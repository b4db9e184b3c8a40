"""Verification of routings: path validity and hit-count certificates.

A routing certificate is only worth anything if machine-checked; this
module confirms (a) every path is a genuine undirected walk of the CDAG,
(b) endpoints match declarations, (c) the vertex- and meta-vertex-level
hit maxima are within the claimed ``m`` — the content of Definition 2
and the Routing Theorem's meta-vertex clause.

:func:`verify_routing` reads the routing once as a flat vertex array
(:meth:`Routing.flat`) and runs every check over it as a few numpy
passes; every path is always checked edge by edge (a full check of a
16,384-path certificate costs tens of milliseconds).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.cdag.graph import CDAG
from repro.cdag.metavertex import MetaVertexPartition
from repro.errors import RoutingError
from repro.routing.paths import Routing, meta_hits, sorted_distinct

__all__ = ["RoutingReport", "verify_path", "verify_routing"]


def _check_edges(cdag: CDAG, flat: np.ndarray, joins: np.ndarray | None = None) -> None:
    """Raise :class:`RoutingError` unless every vertex of ``flat`` is a
    CDAG vertex and every step ``flat[i] -> flat[i + 1]`` is an adjacency
    of the CDAG (direction ignored), except the steps at positions
    ``joins`` — where one path of a flat view ends and the next begins.

    The step keys ``u * n_vertices + v`` are formed in place, the joins
    overwritten with a key that is in the index, and the distinct keys
    searched in the CDAG's sorted both-orientation edge-key index
    (:meth:`CDAG.edge_key_index`).
    """
    n = np.int64(cdag.n_vertices)
    outside = (flat < 0) | (flat >= n)
    if outside.any():
        raise RoutingError(
            f"path vertex {int(flat[np.argmax(outside)])} is not a CDAG vertex"
        )
    if len(flat) < 2:
        return
    index = cdag.edge_key_index()
    keys = flat[:-1] * n
    keys += flat[1:]
    if joins is not None:
        keys[joins] = index[0]
    keys = sorted_distinct(keys)
    pos = np.minimum(np.searchsorted(index, keys), len(index) - 1)
    missing = keys[index[pos] != keys]
    if len(missing):
        u, v = divmod(int(missing[0]), int(n))
        raise RoutingError(f"path step {u} -> {v} is not a CDAG edge")


def verify_path(cdag: CDAG, path: np.ndarray) -> None:
    """Raise :class:`RoutingError` unless consecutive vertices are
    adjacent in the CDAG (direction ignored)."""
    _check_edges(cdag, np.asarray(path, dtype=np.int64))


@dataclass(frozen=True)
class RoutingReport:
    """Outcome of :func:`verify_routing` (one row of E3/E4 reports)."""

    label: str
    n_paths: int
    claimed_m: int
    max_vertex_hits: int
    max_meta_hits: int | None
    total_length: int

    @property
    def within_bound(self) -> bool:
        ok = self.max_vertex_hits <= self.claimed_m
        if self.max_meta_hits is not None:
            ok = ok and self.max_meta_hits <= self.claimed_m
        return ok

    @property
    def slack(self) -> float:
        """claimed / measured — how loose the paper's constant is."""
        measured = max(
            self.max_vertex_hits,
            self.max_meta_hits or 0,
        )
        return self.claimed_m / measured if measured else float("inf")


def verify_routing(
    cdag: CDAG,
    routing: Routing,
    claimed_m: int,
    meta: MetaVertexPartition | None = None,
    expected_pairs: set[tuple[int, int]] | None = None,
) -> RoutingReport:
    """Full certificate check.

    Parameters
    ----------
    claimed_m:
        The ``m`` of the claimed ``m``-routing (e.g. ``6 a^k``).
    meta:
        When given, also enforce the bound at meta-vertex granularity.
    expected_pairs:
        When given, the declared endpoint pairs must cover this set
        exactly once each (the "|X||Y| paths, one per pair" clause).

    Checks, in order: every path is nonempty and has one declaration;
    the declared endpoints; every step of every path; pair coverage; the
    vertex and meta-vertex hit bounds.  Raises on any violation; returns
    the measured report otherwise.
    """
    flat, lengths = routing.flat()
    n_paths = len(lengths)
    if len(routing.endpoints) != n_paths:
        raise RoutingError(
            f"routing has {n_paths} paths but "
            f"{len(routing.endpoints)} endpoint declarations"
        )
    if not lengths.all():
        raise RoutingError(f"path {int(np.argmin(lengths))} is empty")
    ends = np.cumsum(lengths)
    declared = np.fromiter(
        itertools.chain.from_iterable(routing.endpoints),
        dtype=np.int64,
        count=2 * n_paths,
    ).reshape(-1, 2)
    heads, tails = flat[ends - lengths], flat[ends - 1]
    wrong = (heads != declared[:, 0]) | (tails != declared[:, 1])
    if wrong.any():
        i = int(np.argmax(wrong))
        raise RoutingError(
            f"path endpoints ({heads[i]}, {tails[i]}) disagree with "
            f"declaration ({declared[i, 0]}, {declared[i, 1]})"
        )
    _check_edges(cdag, flat, ends[:-1] - 1)

    if expected_pairs is not None:
        declared_pairs = set(routing.endpoints)
        if n_paths != len(expected_pairs) or declared_pairs != expected_pairs:
            raise RoutingError(
                f"routing declares {n_paths} paths over "
                f"{len(declared_pairs)} pairs; expected exactly "
                f"{len(expected_pairs)} pairs"
            )

    n = cdag.n_vertices
    max_hits = int(np.bincount(flat, minlength=n).max(initial=0))
    if max_hits > claimed_m:
        raise RoutingError(
            f"vertex hit count {max_hits} exceeds claimed m={claimed_m}"
        )
    max_meta = None
    if meta is not None:
        max_meta = int(meta_hits(flat, lengths, meta.label, n).max(initial=0))
        if max_meta > claimed_m:
            raise RoutingError(
                f"meta-vertex hit count {max_meta} exceeds claimed "
                f"m={claimed_m}"
            )
    return RoutingReport(
        label=routing.label,
        n_paths=n_paths,
        claimed_m=claimed_m,
        max_vertex_hits=max_hits,
        max_meta_hits=max_meta,
        total_length=len(flat),
    )
