"""The per-path routing construction and verifier, kept verbatim as the
golden reference for equivalence tests.

:mod:`repro.routing` builds Lemma-3 chains as one block of vertex ids,
gathers every Lemma-4 path at once from dense chain tables and verifies
a routing over one flat vertex array.  This is the version it replaced:
one ``dependency_chain`` and one ``concatenate_paths`` call per path,
Lemma-4's Figure-6 pattern written twice (as pieces and as ``bump``
calls), and one ``np.unique`` per path for the meta-vertex hits.  The
equivalence tests run both over algorithms x recursion depths and assert
byte-identical paths and equal endpoints, ledgers and reports.  Do not
optimise this file — its value is that it stays the original semantics.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cdag.graph import CDAG, Region
from repro.cdag.metavertex import MetaVertexPartition
from repro.errors import RoutingError
from repro.routing.hall import base_matching
from repro.routing.paths import Routing
from repro.routing.verify import RoutingReport
from repro.utils.indexing import pair_unindex


# ----------------------------------------------------------------------
# Guaranteed dependencies
# ----------------------------------------------------------------------


def _digits_row_col(digits: tuple[int, ...], n0: int) -> tuple[int, int]:
    row = col = 0
    for e in digits:
        r, c = pair_unindex(e, n0)
        row = row * n0 + r
        col = col * n0 + c
    return row, col


def input_row_col(cdag: CDAG, v: int) -> tuple[str, int, int]:
    region, local_rank, digits = cdag.vertex_digits(v)
    if local_rank != 0 or region == Region.DEC:
        raise ValueError(f"vertex {v} is not an input")
    side = "A" if region == Region.ENC_A else "B"
    row, col = _digits_row_col(digits, cdag.alg.n0)
    return side, row, col


def output_row_col(cdag: CDAG, w: int) -> tuple[int, int]:
    region, local_rank, digits = cdag.vertex_digits(w)
    if region != Region.DEC or local_rank != cdag.r:
        raise ValueError(f"vertex {w} is not an output")
    return _digits_row_col(digits, cdag.alg.n0)


def guaranteed_dependencies(
    cdag: CDAG, side: str | None = None
) -> Iterator[tuple[int, int]]:
    n = cdag.alg.n0**cdag.r
    sides = ("A", "B") if side is None else (side,)
    inputs_by_rc: dict[tuple[str, int, int], int] = {}
    for s in sides:
        for v in cdag.inputs(s).tolist():
            _, row, col = input_row_col(cdag, v)
            inputs_by_rc[(s, row, col)] = v
    outputs_by_rc: dict[tuple[int, int], int] = {}
    for w in cdag.outputs().tolist():
        outputs_by_rc[output_row_col(cdag, w)] = w

    for s in sides:
        for row in range(n):
            for col in range(n):
                v = inputs_by_rc[(s, row, col)]
                if s == "A":
                    for out_col in range(n):
                        yield v, outputs_by_rc[(row, out_col)]
                else:
                    for out_row in range(n):
                        yield v, outputs_by_rc[(out_row, col)]


# ----------------------------------------------------------------------
# Lemma 3
# ----------------------------------------------------------------------


def dependency_chain(
    cdag: CDAG,
    v: int,
    w: int,
    matching: dict[tuple[int, int], int],
) -> np.ndarray:
    region_in, rank_in, in_digits = cdag.vertex_digits(v)
    region_out, rank_out, out_digits = cdag.vertex_digits(w)
    if rank_in != 0 or region_in == Region.DEC:
        raise RoutingError(f"{v} is not an input vertex")
    if region_out != Region.DEC or rank_out != cdag.r:
        raise RoutingError(f"{w} is not an output vertex")

    r = cdag.r
    try:
        mults = tuple(
            matching[(in_digits[i], out_digits[i])] for i in range(r)
        )
    except KeyError as exc:
        raise RoutingError(
            f"({v}, {w}) is not a guaranteed dependence on this side: "
            f"no matching entry for level pair {exc}"
        ) from None

    chain: list[int] = [v]
    for i in range(1, r + 1):
        digits = mults[:i] + in_digits[i:]
        chain.append(cdag.vertex_id(region_in, i, digits))
    chain.append(cdag.vertex_id(Region.DEC, 0, mults))
    for j in range(1, r + 1):
        digits = mults[: r - j] + out_digits[r - j :]
        chain.append(cdag.vertex_id(Region.DEC, j, digits))
    return np.asarray(chain, dtype=np.int64)


def lemma3_routing(
    cdag: CDAG,
    side: str | None = None,
    matchings: dict[str, dict[tuple[int, int], int]] | None = None,
) -> Routing:
    alg = cdag.alg
    sides = ("A", "B") if side is None else (side,)
    matchings = matchings or {}
    for s in sides:
        if s not in matchings:
            matchings[s] = base_matching(alg, s)

    routing = Routing(cdag, label=f"lemma3[{'+'.join(sides)}] r={cdag.r}")
    for s in sides:
        match = matchings[s]
        for v, w in guaranteed_dependencies(cdag, side=s):
            routing.add(dependency_chain(cdag, v, w, match), source=v, target=w)
    return routing


# ----------------------------------------------------------------------
# Lemma 4
# ----------------------------------------------------------------------


def concatenate_paths(
    pieces: Iterable[Sequence[int]], reverse_flags: Iterable[bool]
) -> np.ndarray:
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


class _ChainStore:
    def __init__(self, cdag: CDAG, chains: Routing):
        self.cdag = cdag
        self.by_key: dict[tuple[str, int, int, int, int], np.ndarray] = {}
        self.inputs: dict[tuple[str, int, int], int] = {}
        self.outputs: dict[tuple[int, int], int] = {}
        for (v, w), path in zip(chains.endpoints, chains.paths):
            side, row, col = input_row_col(cdag, v)
            orow, ocol = output_row_col(cdag, w)
            self.by_key[(side, row, col, orow, ocol)] = path
            self.inputs[(side, row, col)] = v
            self.outputs[(orow, ocol)] = w

    def chain(self, side: str, row: int, col: int, orow: int, ocol: int) -> np.ndarray:
        try:
            return self.by_key[(side, row, col, orow, ocol)]
        except KeyError:
            raise RoutingError(
                f"missing guaranteed-dependence chain "
                f"{side}[{row},{col}] -> C[{orow},{ocol}]"
            ) from None


def lemma4_routing(cdag: CDAG, chains: Routing) -> Routing:
    store = _ChainStore(cdag, chains)
    n = cdag.alg.n0**cdag.r
    routing = Routing(cdag, label=f"lemma4 r={cdag.r}")

    for side in ("A", "B"):
        for i in range(n):
            for j in range(n):
                v = store.inputs[(side, i, j)]
                for oi in range(n):
                    for oj in range(n):
                        w = store.outputs[(oi, oj)]
                        if side == "A":
                            pieces = (
                                store.chain("A", i, j, i, oj),
                                store.chain("B", j, oj, i, oj),
                                store.chain("B", j, oj, oi, oj),
                            )
                        else:
                            pieces = (
                                store.chain("B", i, j, oi, j),
                                store.chain("A", oi, i, oi, j),
                                store.chain("A", oi, i, oi, oj),
                            )
                        path = concatenate_paths(pieces, (False, True, False))
                        routing.add(path, source=v, target=w)
    return routing


def chain_usage_counts(cdag: CDAG, chains: Routing) -> dict[tuple[int, int], int]:
    store = _ChainStore(cdag, chains)
    n = cdag.alg.n0**cdag.r
    counts: dict[tuple[int, int], int] = {pair: 0 for pair in chains.endpoints}

    def bump(side, row, col, orow, ocol):
        v = store.inputs[(side, row, col)]
        w = store.outputs[(orow, ocol)]
        counts[(v, w)] += 1

    for i in range(n):
        for j in range(n):
            for oi in range(n):
                for oj in range(n):
                    bump("A", i, j, i, oj)
                    bump("B", j, oj, i, oj)
                    bump("B", j, oj, oi, oj)
                    bump("B", i, j, oi, j)
                    bump("A", oi, i, oi, j)
                    bump("A", oi, i, oi, oj)
    return counts


# ----------------------------------------------------------------------
# Ledgers and verification
# ----------------------------------------------------------------------


def vertex_hits(routing: Routing) -> np.ndarray:
    if not routing.paths:
        return np.zeros(routing.cdag.n_vertices, dtype=np.int64)
    flat = np.concatenate(routing.paths)
    return np.bincount(flat, minlength=routing.cdag.n_vertices)


def meta_hits(routing: Routing, meta: MetaVertexPartition) -> np.ndarray:
    hits = np.zeros(routing.cdag.n_vertices, dtype=np.int64)
    for path in routing.paths:
        hits[np.unique(meta.label[path])] += 1
    return hits


def _check_edges(cdag: CDAG, u: np.ndarray, v: np.ndarray) -> None:
    if len(u) == 0:
        return
    n = np.int64(cdag.n_vertices)
    in_range = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    if not in_range.all():
        i = int(np.argmin(in_range))
        raise RoutingError(
            f"path step {int(u[i])} -> {int(v[i])} is not a CDAG edge"
        )
    keys = cdag.edge_key_index()
    wanted = u * n + v
    pos = np.searchsorted(keys, wanted)
    found = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == wanted)
    if not found.all():
        i = int(np.argmin(found))
        raise RoutingError(
            f"path step {int(u[i])} -> {int(v[i])} is not a CDAG edge"
        )


def verify_routing(
    cdag: CDAG,
    routing: Routing,
    claimed_m: int,
    meta: MetaVertexPartition | None = None,
    expected_pairs: set[tuple[int, int]] | None = None,
) -> RoutingReport:
    heads = []
    tails = []
    for path, (src, dst) in zip(routing.paths, routing.endpoints):
        if int(path[0]) != src or int(path[-1]) != dst:
            raise RoutingError(
                f"path endpoints ({path[0]}, {path[-1]}) disagree with "
                f"declaration ({src}, {dst})"
            )
        path = np.asarray(path, dtype=np.int64)
        if len(path) > 1:
            heads.append(path[:-1])
            tails.append(path[1:])
    if heads:
        _check_edges(cdag, np.concatenate(heads), np.concatenate(tails))

    if expected_pairs is not None:
        declared = list(routing.endpoints)
        if len(declared) != len(expected_pairs) or set(declared) != expected_pairs:
            raise RoutingError(
                f"routing declares {len(declared)} paths over "
                f"{len(set(declared))} pairs; expected exactly "
                f"{len(expected_pairs)} pairs"
            )

    max_hits = int(vertex_hits(routing).max(initial=0))
    if max_hits > claimed_m:
        raise RoutingError(
            f"vertex hit count {max_hits} exceeds claimed m={claimed_m}"
        )
    max_meta = None
    if meta is not None:
        max_meta = int(meta_hits(routing, meta).max(initial=0))
        if max_meta > claimed_m:
            raise RoutingError(
                f"meta-vertex hit count {max_meta} exceeds claimed "
                f"m={claimed_m}"
            )
    return RoutingReport(
        label=routing.label,
        n_paths=len(routing),
        claimed_m=claimed_m,
        max_vertex_hits=max_hits,
        max_meta_hits=max_meta,
        total_length=int(sum(len(p) for p in routing.paths)),
    )
