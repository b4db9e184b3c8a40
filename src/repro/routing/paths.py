"""Path and routing data structures (paper Definition 2).

A *path* here is a sequence of CDAG vertices where consecutive vertices
are adjacent, *ignoring edge direction* — the paper's routings freely
walk up and down the ranked graph (Figure 4's "zags", Lemma 4's
reversed chains).

An *m-routing* between vertex sets ``X`` and ``Y`` is a collection of
``|X| * |Y|`` such paths, one per pair, with every vertex of the graph
used at most ``m`` times across all paths (occurrences counted with
multiplicity).  :class:`Routing` stores the paths with their declared
endpoints and provides the hit-count ledgers all verification is built
on.

The ledgers read one flat view of the paths (:meth:`Routing.flat`: all
vertices in one int64 array plus each path's length) instead of
walking the paths one at a time.  Meta-vertex hits count each path at
most once per meta-vertex by sorting ``path_id * n + label`` keys and
keeping the first of each run (:func:`meta_hits`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.cdag.graph import CDAG
from repro.cdag.metavertex import MetaVertexPartition
from repro.errors import RoutingError

__all__ = ["Routing", "concatenate_paths"]


@dataclass
class Routing:
    """A collection of undirected paths in a CDAG.

    Attributes
    ----------
    cdag:
        The graph the paths live in.
    paths:
        One int64 array per path (vertex sequences).
    endpoints:
        Declared ``(source, target)`` per path, aligned with ``paths``.
    label:
        Free-form description (which construction produced it).
    """

    cdag: CDAG
    paths: list[np.ndarray] = field(default_factory=list)
    endpoints: list[tuple[int, int]] = field(default_factory=list)
    label: str = ""

    def add(self, path: Sequence[int], source: int | None = None,
            target: int | None = None) -> None:
        """Append a path; endpoints default to its first/last vertex."""
        arr = np.asarray(path, dtype=np.int64)
        if arr.ndim != 1 or len(arr) == 0:
            raise RoutingError("a path must be a nonempty vertex sequence")
        self.paths.append(arr)
        self.endpoints.append(
            (
                int(arr[0]) if source is None else int(source),
                int(arr[-1]) if target is None else int(target),
            )
        )

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    # ------------------------------------------------------------------
    # Ledgers
    # ------------------------------------------------------------------

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every path in one int64 vertex array, plus each path's length.

        The ledgers and :func:`repro.routing.verify.verify_routing` read
        this view instead of walking ``paths`` one array at a time.
        """
        lengths = np.fromiter(
            map(len, self.paths), dtype=np.int64, count=len(self.paths)
        )
        if not self.paths:
            return np.zeros(0, dtype=np.int64), lengths
        flat = np.concatenate(self.paths, dtype=np.int64, casting="unsafe")
        return flat, lengths

    def vertex_hits(self) -> np.ndarray:
        """How many times each vertex is used across all paths
        (occurrences counted with multiplicity)."""
        return np.bincount(self.flat()[0], minlength=self.cdag.n_vertices)

    def max_vertex_hits(self) -> int:
        """The routing's effective ``m`` at vertex granularity."""
        return int(self.vertex_hits().max(initial=0))

    def meta_hits(self, meta: MetaVertexPartition) -> np.ndarray:
        """Hits per meta-vertex, counting each *path* at most once per
        meta-vertex (indexed by meta root).

        This is the paper's notion: a path ascending a copy chain touches
        several members of one meta-vertex but "hits" it once — the
        Routing Theorem's proof bounds the number of *paths* through each
        meta-vertex via its root.
        """
        flat, lengths = self.flat()
        return meta_hits(flat, lengths, meta.label, self.cdag.n_vertices)

    def max_meta_hits(self, meta: MetaVertexPartition) -> int:
        """The routing's effective ``m`` at meta-vertex granularity."""
        return int(self.meta_hits(meta).max(initial=0))

    def total_path_length(self) -> int:
        """Total number of vertex occurrences (ledger mass)."""
        return len(self.flat()[0])

    # ------------------------------------------------------------------

    def endpoint_index(self) -> dict[tuple[int, int], int]:
        """Map ``(source, target) -> path position`` (first occurrence)."""
        out: dict[tuple[int, int], int] = {}
        for i, pair in enumerate(self.endpoints):
            out.setdefault(pair, i)
        return out

    def path_between(self, source: int, target: int) -> np.ndarray:
        """The path declared for ``(source, target)``."""
        for pair, path in zip(self.endpoints, self.paths):
            if pair == (source, target):
                return path
        raise RoutingError(f"no path declared for ({source}, {target})")

    def __repr__(self) -> str:
        return (
            f"Routing({self.label or 'unlabeled'}, paths={len(self.paths)}, "
            f"max_hits={self.max_vertex_hits()})"
        )


def meta_hits(
    flat: np.ndarray, lengths: np.ndarray, label: np.ndarray, n_vertices: int
) -> np.ndarray:
    """Paths through each meta-vertex label, each path counted once per
    label, over a :meth:`Routing.flat` view.

    Every occurrence becomes the key ``path_id * n_vertices + label``;
    a path's repeats of one label share a key, so the distinct keys are
    the (path, label) hits.
    """
    n = np.int64(n_vertices)
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * n, lengths)
    keys += label[flat]
    return np.bincount(sorted_distinct(keys) % n, minlength=n_vertices)


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, which is sorted in place.

    A sort and a neighbour compare, not ``np.unique``: numpy 2's
    hash-based unique is many times slower on these int64 keys.
    """
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def concatenate_paths(
    pieces: Iterable[Sequence[int]], reverse_flags: Iterable[bool]
) -> np.ndarray:
    """Concatenate chain pieces (some reversed) into one path.

    Consecutive pieces must share their junction vertex (last of the
    previous = first of the next, after orientation); junctions are not
    duplicated in the result.  This realises Lemma 4's "concatenation of
    chains in F — some reversed in direction".
    """
    out: list[int] = []
    for piece, rev in zip(pieces, reverse_flags):
        arr = list(piece)
        if rev:
            arr = arr[::-1]
        if out:
            if out[-1] != arr[0]:
                raise RoutingError(
                    f"cannot concatenate: junction mismatch "
                    f"({out[-1]} != {arr[0]})"
                )
            arr = arr[1:]
        out.extend(int(v) for v in arr)
    if not out:
        raise RoutingError("cannot concatenate zero pieces")
    return np.asarray(out, dtype=np.int64)
