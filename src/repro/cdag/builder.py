"""Construction of ``G_r`` from a base bilinear algorithm.

The builder materialises the recursive CDAG described in
:mod:`repro.cdag.graph` as flat int32 CSR arrays, fully vectorised: the
predecessor CSR is allocated once at its final size and written in
place, one numpy outer sum per rank transition, so the cost is
``O(|E|)`` numpy work regardless of ``r`` and no edge list is ever held
beside it.
"""

from __future__ import annotations

import numpy as np

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.cdag.graph import CDAG, Region, Slab, slab_layout
from repro.errors import CDAGError
from repro.telemetry.spans import span
from repro.utils.validation import check_nonnegative_int

__all__ = ["build_cdag", "build_base_graph", "MAX_VERTICES"]

#: Safety valve: refuse to build graphs that would not fit in memory.
MAX_VERTICES = 20_000_000


def build_base_graph(alg: BilinearAlgorithm) -> CDAG:
    """The base graph ``G_1`` (paper, Figure 1)."""
    return build_cdag(alg, 1)


def build_cdag(alg: BilinearAlgorithm, r: int) -> CDAG:
    """Build the CDAG ``G_r`` for ``n0^r x n0^r`` matrix multiplication.

    Parameters
    ----------
    alg:
        Base algorithm (defines ``a``, ``b``, and the edge supports).
    r:
        Recursion depth, ``>= 0``.  ``G_0`` is the degenerate scalar
        multiplication (two inputs feeding one product/output); it exists
        so the Fact 1 decomposition is total over ``0 <= k <= r``.

    Raises
    ------
    CDAGError
        If the graph would exceed :data:`MAX_VERTICES`, or its vertex
        and edge counts together would reach ``2**31`` (both are checked
        before anything is allocated).
    """
    with span("cdag.build", alg=alg.name) as sp:
        g = _build_cdag(alg, r)
        sp.add("vertices", g.n_vertices)
        sp.add("edges", g.n_edges)
        sp.set("recursion_depth", r)
        return g


def _build_cdag(alg: BilinearAlgorithm, r: int) -> CDAG:
    r = check_nonnegative_int(r, "r")
    a, b = alg.a, alg.b

    n_vertices = _total_vertices(a, b, r)
    if n_vertices > MAX_VERTICES:
        raise CDAGError(
            f"G_{r} for {alg.name} would have {n_vertices:,} vertices "
            f"(limit {MAX_VERTICES:,}); reduce r"
        )

    # ------------------------------------------------------------------
    # Slab layout: ENC_A ranks 0..r, ENC_B ranks 0..r, DEC ranks 0..r.
    # ------------------------------------------------------------------
    slabs, total = slab_layout(a, b, r)
    assert total == n_vertices
    layers = _layers(alg, r, slabs)
    prod = slabs[(Region.DEC, 0)]
    n_edges = 2 * prod.size + sum(
        n_m * int(rows.degree.sum()) * n_e for _, _, rows, n_m, n_e in layers
    )
    if n_vertices + n_edges >= 2**31:
        raise CDAGError(
            f"G_{r} for {alg.name} would have {n_vertices:,} vertices and "
            f"{n_edges:,} edges; vertex ids, edge offsets and the "
            f"simulator's touch indices are int32, so their sum must stay "
            f"below 2**31"
        )

    # ------------------------------------------------------------------
    # The predecessor CSR, written in place.  A vertex's predecessors
    # are ascending, and a slab's vertices (M, p, E) each take
    # deg(p) = nnz(row p) of them, (M*cols + c)*n_e + E for the nonzeros
    # (p, c).  So the slab's block of predecessors, one row per M, is
    # an outer sum: M*cols*n_e plus the row M = 0 (:meth:`_Rows.block`).
    # Products take their two encoder tops, A first.
    # ------------------------------------------------------------------
    is_copy = np.zeros(n_vertices, dtype=bool)
    degree = np.zeros(n_vertices, dtype=np.int32)
    degree[prod.offset : prod.offset + prod.size] = 2
    for upper, _, rows, n_m, n_e in layers:
        span = slice(upper.offset, upper.offset + upper.size)
        degree[span].reshape(n_m, -1, n_e)[:] = rows.degree[:, None]
        is_copy[span].reshape(n_m, -1, n_e)[:] = rows.copy[:, None]
    pred_indptr = np.zeros(n_vertices + 1, dtype=np.int32)
    np.cumsum(degree, out=pred_indptr[1:])
    del degree

    pred_indices = np.empty(n_edges, dtype=np.int32)
    for upper, lower, rows, n_m, n_e in layers:
        start = int(pred_indptr[upper.offset])
        first = rows.block(n_e)
        first += lower.offset
        block = pred_indices[start : start + n_m * len(first)]
        heads = np.arange(n_m, dtype=np.int32)
        heads *= lower.size // n_m
        np.add(heads[:, None], first, out=block.reshape(n_m, len(first)))
    start = int(pred_indptr[prod.offset])
    block = pred_indices[start : start + 2 * prod.size].reshape(prod.size, 2)
    for k, region in enumerate((Region.ENC_A, Region.ENC_B)):
        top = slabs[(region, r)]
        block[:, k] = np.arange(top.offset, top.offset + top.size, dtype=np.int32)

    return CDAG(
        alg=alg,
        r=r,
        slabs=slabs,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        is_copy=is_copy,
    )


class _Rows:
    """The rows of one coefficient matrix as the builder reads them:
    each row's nonzero count, whether it is a *copy* row (a single
    nonzero equal to 1: the vertex it computes holds its unique
    predecessor's value), and the nonzeros (p, c) in row-major order."""

    def __init__(self, E: np.ndarray):
        support = E != 0
        self.degree = support.sum(axis=1).astype(np.int32)
        self.copy = (self.degree == 1) & (E.sum(axis=1) == 1.0)
        row, self.col = np.nonzero(support)
        before = np.cumsum(self.degree) - self.degree
        self.rank = np.arange(len(row)) - before[row]
        self.before = before[row]
        self.deg = self.degree[row]

    def block(self, n_e: int) -> np.ndarray:
        """Row ``M = 0`` of a layer's predecessor block, relative to the
        lower slab: vertex ``(p, E)`` lists ``c*n_e + E`` for the
        nonzeros ``(p, c)`` of its row, so the one through the row's
        ``k``-th nonzero sits at ``before(p)*n_e + E*deg(p) + k``."""
        e = np.arange(n_e)
        pos = (self.before * n_e + self.rank)[:, None] + np.outer(self.deg, e)
        first = np.empty(len(self.col) * n_e, dtype=np.int32)
        first[pos] = self.col[:, None] * n_e + e
        return first


def _layers(alg: BilinearAlgorithm, r: int, slabs: dict[tuple[int, int], Slab]):
    """Every slab above rank 0 but the products, as ``(upper, lower,
    rows, n_m, n_e)``: vertex ``(M, p, E)`` of ``upper`` is row ``p`` of
    a coefficient matrix (:class:`_Rows`) over the vertices ``(M, c, E)``
    of ``lower``, with ``n_m`` leading multiplication digits ``M`` and
    ``n_e`` trailing entry digits ``E``.  Encoder rank ``i`` applies
    ``U`` (``V``) to the entry digit ``e_i``; decoding rank ``j``
    applies ``W`` to the multiplication digit ``m_(r-j+1)``."""
    a, b = alg.a, alg.b
    layers = []
    for region, E in ((Region.ENC_A, alg.U), (Region.ENC_B, alg.V)):
        rows = _Rows(E)
        for i in range(1, r + 1):
            layers.append((slabs[(region, i)], slabs[(region, i - 1)], rows,
                           b ** (i - 1), a ** (r - i)))
    rows = _Rows(alg.W)
    for j in range(1, r + 1):
        layers.append((slabs[(Region.DEC, j)], slabs[(Region.DEC, j - 1)],
                       rows, b ** (r - j), a ** (j - 1)))
    return layers


def _total_vertices(a: int, b: int, r: int) -> int:
    enc_rank_sizes = [b**i * a ** (r - i) for i in range(r + 1)]
    dec_rank_sizes = [b ** (r - j) * a**j for j in range(r + 1)]
    return 2 * sum(enc_rank_sizes) + sum(dec_rank_sizes)
