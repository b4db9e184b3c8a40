"""Lemma 3: a ``2 n0^k``-routing of all guaranteed dependencies in G_k.

Construction (paper Section 7.2 + Claim 2):

1. For each side, compute the base matching (one multiplication per
   base-level dependency, load <= n0 — :mod:`repro.routing.hall`).
2. Lift recursively (Claim 2 / Figure 7): a dependence between input
   tuple ``(ea_1 .. ea_k)`` and output tuple ``(ec_1 .. ec_k)`` (rows
   matching digit-wise) is routed through the multiplication tuple
   ``m_i = matching[(ea_i, ec_i)]``; its *chain* climbs the encoder

       (ea_1..ea_k) -> (m_1, ea_2..) -> ... -> (m_1..m_k)

   crosses the product vertex, and descends the decoder

       (m_1..m_k) -> (m_1..m_{k-1}, ec_k) -> ... -> (ec_1..ec_k).

   Every encoder edge exists because ``E[m_i, ea_i] != 0`` and every
   decoder edge because ``W[ec_i, m_i] != 0`` — exactly the Hall-graph
   adjacency.

The per-side routing uses each vertex at most ``n0^k`` times; decoder
vertices are shared by both sides, giving the ``2 n0^k`` bound.  All of
this is *verified* (not assumed) by the tests and experiment E6.

:func:`lemma3_routing` builds each side's chains at once: the per-level
digits come from arithmetic on the dependencies' rows and columns and a
dense matching table, and the chains are the rows of one
``(deps, 2r + 2)`` block of vertex ids.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, Region
from repro.errors import RoutingError
from repro.routing.guaranteed import _dependency_arrays, _row_col_digits
from repro.routing.hall import base_matching
from repro.routing.paths import Routing
from repro.telemetry.spans import span

__all__ = ["dependency_chain", "lemma3_routing"]


def _matching_table(matching: dict[tuple[int, int], int], a: int, b: int) -> np.ndarray:
    """The base matching as a dense ``a x a`` table over (entry in,
    entry out); -1 where it has no entry."""
    table = np.full((a, a), -1, dtype=np.int64)
    for (e_in, e_out), m in matching.items():
        if not (0 <= e_in < a and 0 <= e_out < a and 0 <= m < b):
            raise ValueError(
                f"matching entry ({e_in}, {e_out}) -> {m} out of range "
                f"for a={a}, b={b}"
            )
        table[e_in, e_out] = m
    return table


def _level_mults(
    table: np.ndarray,
    in_digits: list[np.ndarray],
    out_digits: list[np.ndarray],
    v: np.ndarray,
    w: np.ndarray,
) -> list[np.ndarray]:
    """Per-level multiplication digits ``m_i = matching[(ea_i, ec_i)]`` of
    every dependency ``(v, w)``.

    Raises :class:`RoutingError` at the first dependency (and level) the
    matching has no entry for.
    """
    mults = [table[ea, ec] for ea, ec in zip(in_digits, out_digits)]
    if not mults:  # G_0 has no level to route through
        return mults
    missing = np.stack(mults) < 0
    if missing.any():
        d = int(np.argmax(missing.any(axis=0)))
        i = int(np.argmax(missing[:, d]))
        pair = (int(in_digits[i][d]), int(out_digits[i][d]))
        raise RoutingError(
            f"({int(v[d])}, {int(w[d])}) is not a guaranteed dependence on "
            f"this side: no matching entry for level pair {pair}"
        )
    return mults


def _chain_block(
    cdag: CDAG,
    region_in: int,
    in_digits: list[np.ndarray],
    out_digits: list[np.ndarray],
    mults: list[np.ndarray],
) -> np.ndarray:
    """The Claim-2 chains of many dependencies as the rows of one
    ``(deps, 2r + 2)`` block of vertex ids.

    Column ``i <= r`` is encoder rank ``i`` (the first ``i`` entry digits
    replaced by multiplications), column ``r + 1`` the product and column
    ``r + 1 + j`` decoding rank ``j`` (the last ``j`` multiplication
    digits replaced by output entries).
    """
    r = cdag.r
    if r == 0:  # G_0: one dependency per side, one vertex per slab
        return np.array(
            [[cdag.slab(region_in, 0).offset, cdag.slab(Region.DEC, 0).offset]],
            dtype=np.int64,
        )

    def column(region: int, local_rank: int, digits: list[np.ndarray]) -> np.ndarray:
        slab = cdag.slab(region, local_rank)
        return slab.offset + slab.radix.pack_array(digits)

    cols = [column(region_in, i, mults[:i] + in_digits[i:]) for i in range(r + 1)]
    cols += [
        column(Region.DEC, j, mults[: r - j] + out_digits[r - j :])
        for j in range(r + 1)
    ]
    return np.stack(cols, axis=1)


def dependency_chain(
    cdag: CDAG,
    v: int,
    w: int,
    matching: dict[tuple[int, int], int],
) -> np.ndarray:
    """The Claim-2 chain for one guaranteed dependence ``(v, w)``.

    ``matching`` is the base matching for ``v``'s side.
    """
    region_in, rank_in, in_digits = cdag.vertex_digits(v)
    region_out, rank_out, out_digits = cdag.vertex_digits(w)
    if rank_in != 0 or region_in == Region.DEC:
        raise RoutingError(f"{v} is not an input vertex")
    if region_out != Region.DEC or rank_out != cdag.r:
        raise RoutingError(f"{w} is not an output vertex")

    ea = [np.array([d], dtype=np.int64) for d in in_digits]
    ec = [np.array([d], dtype=np.int64) for d in out_digits]
    table = _matching_table(matching, cdag.a, cdag.b)
    mults = _level_mults(table, ea, ec, [v], [w])
    return _chain_block(cdag, region_in, ea, ec, mults)[0]


def lemma3_routing(
    cdag: CDAG,
    side: str | None = None,
    matchings: dict[str, dict[tuple[int, int], int]] | None = None,
) -> Routing:
    """The ``2 n0^k``-routing for all guaranteed dependencies of ``G_k``
    (``n0^k`` per side when ``side`` is restricted).

    ``matchings`` may carry precomputed base matchings (keys "A"/"B").
    Each side's chains are built at once as the rows of one block; the
    declared endpoints come from the dependency enumeration, not from
    the block, so verification compares two independent computations.
    """
    alg = cdag.alg
    with span("routing.lemma3", alg=alg.name, k=cdag.r) as sp:
        sides = ("A", "B") if side is None else (side,)
        matchings = matchings or {}
        for s in sides:
            if s not in matchings:
                matchings[s] = base_matching(alg, s)

        routing = Routing(cdag, label=f"lemma3[{'+'.join(sides)}] r={cdag.r}")
        n0, r = alg.n0, cdag.r
        for s in sides:
            v, w, row, col, out_row, out_col = _dependency_arrays(cdag, s)
            ea = _row_col_digits(row, col, n0, r)
            ec = _row_col_digits(out_row, out_col, n0, r)
            table = _matching_table(matchings[s], alg.a, alg.b)
            mults = _level_mults(table, ea, ec, v, w)
            region = Region.ENC_A if s == "A" else Region.ENC_B
            routing.paths.extend(_chain_block(cdag, region, ea, ec, mults))
            routing.endpoints.extend(zip(v.tolist(), w.tolist()))
        sp.add("chains", len(routing))
        return routing
