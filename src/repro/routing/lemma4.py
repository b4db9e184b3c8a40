"""Lemma 4: routing *every* input-output pair by concatenating chains.

Given any routing of the guaranteed dependencies (Lemma 3 supplies one),
route each pair ``(v, w)`` with ``v`` an input and ``w = c_i'j'`` an
output as a concatenation of three guaranteed-dependence chains —
paper's sequences (Figure 6):

    v = a_ij :  a_ij -> c_ij'   <- b_jj'   -> c_i'j'
    v = b_ij :  b_ij -> c_i'j   <- a_i'i   -> c_i'j'

(middle chains reversed).  Each guaranteed dependence participates in
exactly three of the patterns, once per free index, so each chain is
used exactly ``3 n0^k`` times — :func:`chain_usage_counts` verifies
this, and composing with Lemma 3's ``2 n0^k`` vertex bound gives
Theorem 2's ``6 a^k``.

The pattern is written once, in :meth:`_ChainStore.path_chains`: the
three chain positions of every path, for all paths at once.
:func:`lemma4_routing` gathers every path from those positions in one
pass over the chains' flat vertex array, and :func:`chain_usage_counts`
bincounts the same positions.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.errors import RoutingError
from repro.routing.guaranteed import _input_coords, _output_coords
from repro.routing.paths import Routing

__all__ = ["lemma4_routing", "chain_usage_counts"]

_A, _B = 0, 1


class _ChainStore:
    """Dense tables over the Lemma-3 chains.

    ``position[side, row, col, orow, ocol]`` is the index of the chain
    ``side[row, col] -> C[orow, ocol]`` in ``chains`` (-1 when missing;
    the last one when declared twice); ``inputs[side, row, col]`` and
    ``outputs[row, col]`` are vertex ids.  Side 0 is A, 1 is B.
    """

    def __init__(self, cdag: CDAG, chains: Routing):
        n = self.n = cdag.alg.n0**cdag.r
        if len(chains.endpoints) != len(chains.paths):
            raise RoutingError(
                f"{len(chains.paths)} chains but "
                f"{len(chains.endpoints)} endpoint declarations"
            )
        ends = np.array(chains.endpoints, dtype=np.int64).reshape(-1, 2)
        side, row, col = _input_coords(cdag, ends[:, 0])
        orow, ocol = _output_coords(cdag, ends[:, 1])
        self.position = np.full((2, n, n, n, n), -1, dtype=np.int64)
        np.maximum.at(
            self.position, (side, row, col, orow, ocol), np.arange(len(ends))
        )
        self.inputs = np.full((2, n, n), -1, dtype=np.int64)
        self.inputs[side, row, col] = ends[:, 0]
        self.outputs = np.full((n, n), -1, dtype=np.int64)
        self.outputs[orow, ocol] = ends[:, 1]

    def path_chains(self) -> np.ndarray:
        """The three chain positions of every Lemma-4 path, shape
        ``(paths, 3)``, paths in (side, i, j, oi, oj) order.

        Raises :class:`RoutingError` naming the first missing chain.
        """
        n = self.n
        i, j, oi, oj = (x.ravel() for x in np.indices((n, n, n, n)))
        pattern = (
            # a_ij -> c_i(oj) <- b_j(oj) -> c_(oi)(oj)
            ((_A, i, j, i, oj), (_B, j, oj, i, oj), (_B, j, oj, oi, oj)),
            # b_ij -> c_(oi)j <- a_(oi)i -> c_(oi)(oj)
            ((_B, i, j, oi, j), (_A, oi, i, oi, j), (_A, oi, i, oi, oj)),
        )
        pos = np.stack(
            [np.stack([self.position[key] for key in keys], axis=1)
             for keys in pattern]
        ).reshape(-1, 3)
        missing = pos < 0
        if missing.any():
            path, piece = divmod(int(np.argmax(missing)), 3)
            side, p = divmod(path, n**4)
            s, row, col, orow, ocol = (
                int(x if np.isscalar(x) else x[p]) for x in pattern[side][piece]
            )
            raise RoutingError(
                f"missing guaranteed-dependence chain "
                f"{'AB'[s]}[{row},{col}] -> C[{orow},{ocol}]"
            )
        return pos

    def path_endpoints(self) -> list[tuple[int, int]]:
        """``(input, output)`` of every Lemma-4 path, in
        :meth:`path_chains` order."""
        n = self.n
        v = np.repeat(self.inputs.reshape(-1), n * n)
        w = np.tile(self.outputs.reshape(-1), 2 * n * n)
        return list(zip(v.tolist(), w.tolist()))


def lemma4_routing(cdag: CDAG, chains: Routing) -> Routing:
    """The full ``In x Out`` routing from a guaranteed-dependence routing.

    ``chains`` must contain a chain for *every* guaranteed dependence of
    ``cdag`` (both sides) — as produced by
    :func:`repro.routing.lemma3.lemma3_routing`.  Each path is chain 1
    forward, then chain 2 reversed without its first vertex, then chain
    3 without its first vertex; all are gathered at once into one buffer
    and returned as views of it.
    """
    store = _ChainStore(cdag, chains)
    pos = store.path_chains()
    flat, lengths = chains.flat()
    if not lengths[pos].all():
        raise RoutingError("cannot concatenate: empty chain")
    starts = np.cumsum(lengths) - lengths
    c1, c2, c3 = pos.T

    # Junctions: chain 1 and chain 2 share their output, chains 2 and 3
    # their input.
    end1 = flat[starts[c1] + lengths[c1] - 1]
    end2 = flat[starts[c2] + lengths[c2] - 1]
    head2, head3 = flat[starts[c2]], flat[starts[c3]]
    bad = (end1 != end2) | (head2 != head3)
    if bad.any():
        p = int(np.argmax(bad))
        x, y = (end1[p], end2[p]) if end1[p] != end2[p] else (head2[p], head3[p])
        raise RoutingError(f"cannot concatenate: junction mismatch ({x} != {y})")

    # One segment per piece: its first flat index, direction and length.
    step = np.tile(np.array([1, -1, 1], dtype=np.int64), len(c1))
    first = np.stack([starts[c1], starts[c2] + lengths[c2] - 2, starts[c3] + 1], axis=1)
    seg_len = np.stack([lengths[c1], lengths[c2] - 1, lengths[c3] - 1], axis=1).reshape(-1)
    out_start = np.cumsum(seg_len) - seg_len
    idx = np.arange(int(seg_len.sum()), dtype=np.int64)
    idx *= np.repeat(step, seg_len)
    idx += np.repeat(first.reshape(-1) - step * out_start, seg_len)
    buf = flat[idx]

    bounds = np.cumsum(seg_len.reshape(-1, 3).sum(axis=1)).tolist()
    routing = Routing(cdag, label=f"lemma4 r={cdag.r}")
    routing.paths = [buf[a:b] for a, b in zip([0] + bounds[:-1], bounds)]
    routing.endpoints = store.path_endpoints()
    return routing


def chain_usage_counts(cdag: CDAG, chains: Routing) -> dict[tuple[int, int], int]:
    """How many Lemma-4 paths use each guaranteed-dependence chain.

    Counts the chain positions of the Lemma-4 pattern (without
    materialising the big routing): per the paper, every chain should be
    used exactly ``3 n0^k`` times.  Returns ``(input_vertex,
    output_vertex) -> count``.
    """
    store = _ChainStore(cdag, chains)
    counts = np.bincount(
        store.path_chains().reshape(-1), minlength=len(chains.endpoints)
    )
    return dict(zip(chains.endpoints, counts.tolist()))
