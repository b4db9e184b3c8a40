"""Construction of ``G_r`` from a base bilinear algorithm.

The builder materialises the recursive CDAG described in
:mod:`repro.cdag.graph` as flat CSR arrays, fully vectorised: one numpy
block of edges per (rank transition, nonzero coefficient) pair, so the
cost is ``O(|E|)`` numpy work regardless of ``r``.
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
        If the graph would exceed :data:`MAX_VERTICES`.
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

    # ------------------------------------------------------------------
    # Edges, as (child, parent) arrays per transition.  Each rank
    # transition fills one preallocated (nnz, n_m, n_e) buffer per side:
    # the heads ``(M*b + m_i) * n_e + offset`` are built on the small
    # (nnz, n_m, 1) prefix and broadcast-added against the entry tail
    # directly into the buffer, so peak memory per transition is the two
    # output blocks themselves — no per-nonzero broadcast_to().copy()
    # temporaries.  Ravel order (nonzero-major, then M, then E) matches
    # the per-nonzero emission order exactly, so the stable argsort
    # below produces byte-identical CSR arrays.
    # ------------------------------------------------------------------
    child_blocks: list[np.ndarray] = []
    parent_blocks: list[np.ndarray] = []

    def emit(children: np.ndarray, parents: np.ndarray) -> None:
        child_blocks.append(children.ravel())
        parent_blocks.append(parents.ravel())

    def emit_transition(
        child_slab: Slab,
        parent_slab: Slab,
        n_m: int,
        n_e: int,
        child_digits: np.ndarray,
        parent_digits: np.ndarray,
        child_base: int,
        parent_base: int,
    ) -> None:
        nnz = len(child_digits)
        if nnz == 0:
            return
        m_head = np.arange(n_m, dtype=np.int64).reshape(1, n_m, 1)
        e_tail = np.arange(n_e, dtype=np.int64).reshape(1, 1, n_e)
        c_col = child_digits.astype(np.int64).reshape(nnz, 1, 1)
        p_col = parent_digits.astype(np.int64).reshape(nnz, 1, 1)
        # parent (M, p, E): index (M*parent_base + p)*n_e + E
        p_head = (m_head * parent_base + p_col) * n_e + parent_slab.offset
        # child (M, c, E): index (M*child_base + c)*n_e + E
        c_head = (m_head * child_base + c_col) * n_e + child_slab.offset
        parents = np.empty((nnz, n_m, n_e), dtype=np.int64)
        children = np.empty((nnz, n_m, n_e), dtype=np.int64)
        np.add(p_head, e_tail, out=parents)
        np.add(c_head, e_tail, out=children)
        emit(children, parents)

    for region, E in ((Region.ENC_A, alg.U), (Region.ENC_B, alg.V)):
        nz_m, nz_e = np.nonzero(E)
        for i in range(1, r + 1):
            emit_transition(
                child_slab=slabs[(region, i - 1)],
                parent_slab=slabs[(region, i)],
                n_m=b ** (i - 1),  # leading multiplication digits
                n_e=a ** (r - i),  # trailing entry digits
                child_digits=nz_e,
                parent_digits=nz_m,
                child_base=a,
                parent_base=b,
            )

    # Multiplication layer: product (m_1..m_r) depends on the two encoder
    # tops with the same tuple.
    prod_slab = slabs[(Region.DEC, 0)]
    prod_ids = np.arange(prod_slab.size, dtype=np.int64)
    for region in (Region.ENC_A, Region.ENC_B):
        top = slabs[(region, r)]
        emit(top.offset + prod_ids, prod_slab.offset + prod_ids)

    # Decoding: rank j-1 -> rank j.
    nz_e, nz_m = np.nonzero(alg.W)
    for j in range(1, r + 1):
        emit_transition(
            child_slab=slabs[(Region.DEC, j - 1)],
            parent_slab=slabs[(Region.DEC, j)],
            n_m=b ** (r - j),  # leading multiplication digits
            n_e=a ** (j - 1),  # trailing entry digits
            child_digits=nz_m,
            parent_digits=nz_e,
            child_base=b,
            parent_base=a,
        )

    children = np.concatenate(child_blocks) if child_blocks else np.empty(0, np.int64)
    parents = np.concatenate(parent_blocks) if parent_blocks else np.empty(0, np.int64)

    # Predecessor CSR: sort edges by parent (stable keeps deterministic
    # child order within a parent).
    order = np.argsort(parents, kind="stable")
    sorted_parents = parents[order]
    pred_indices = children[order]
    counts = np.bincount(sorted_parents, minlength=n_vertices)
    pred_indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=pred_indptr[1:])

    is_copy = _copy_flags(alg, r, slabs, n_vertices)

    return CDAG(
        alg=alg,
        r=r,
        slabs=slabs,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        is_copy=is_copy,
    )


def _total_vertices(a: int, b: int, r: int) -> int:
    enc_rank_sizes = [b**i * a ** (r - i) for i in range(r + 1)]
    dec_rank_sizes = [b ** (r - j) * a**j for j in range(r + 1)]
    return 2 * sum(enc_rank_sizes) + sum(dec_rank_sizes)


def _copy_flags(
    alg: BilinearAlgorithm,
    r: int,
    slabs: dict[tuple[int, int], Slab],
    n_vertices: int,
) -> np.ndarray:
    """Copy flags per vertex.

    An encoder vertex at rank ``i >= 1`` is a copy iff row ``m_i`` of its
    encoder matrix has a single nonzero equal to 1 (the vertex then holds
    the same value as its unique predecessor).  A decoding vertex at rank
    ``j >= 1`` is a copy iff row ``e_{r-j+1}`` of ``W`` is such a row.
    """
    is_copy = np.zeros(n_vertices, dtype=bool)

    def unit_singleton_rows(E: np.ndarray) -> np.ndarray:
        single = np.count_nonzero(E, axis=1) == 1
        sums = E.sum(axis=1)
        return single & (sums == 1.0)

    copy_u = unit_singleton_rows(alg.U)
    copy_v = unit_singleton_rows(alg.V)
    copy_w = unit_singleton_rows(alg.W)
    a, b = alg.a, alg.b

    for region, copy_rows in ((Region.ENC_A, copy_u), (Region.ENC_B, copy_v)):
        for i in range(1, r + 1):
            slab = slabs[(region, i)]
            # The copy predicate depends only on digit m_i, which cycles
            # with period a^(r-i) and repeats every b * a^(r-i).
            n_e = a ** (r - i)
            flags = np.repeat(copy_rows, n_e)  # one period over m_i
            reps = b ** (i - 1)
            is_copy[slab.offset : slab.offset + slab.size] = np.tile(flags, reps)

    for j in range(1, r + 1):
        slab = slabs[(Region.DEC, j)]
        n_e = a ** (j - 1)
        flags = np.repeat(copy_w, n_e)
        reps = b ** (r - j)
        is_copy[slab.offset : slab.offset + slab.size] = np.tile(flags, reps)

    return is_copy
