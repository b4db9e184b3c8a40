"""The computation DAG (CDAG) of a recursive Strassen-like algorithm.

Structure (paper, Section 3, with one bookkeeping difference noted below):
``G_r``, the CDAG for multiplying ``n0^r x n0^r`` matrices, consists of

- two *encoding graphs* (one for ``A``, one for ``B``), each with ranks
  ``0 .. r``; rank ``i`` holds ``b^i * a^(r-i)`` vertices;
- a *multiplication layer* of ``b^r`` product vertices, each depending on
  the top (rank ``r``) vertex of each encoder with the same index;
- a *decoding graph* with ranks ``0 .. r``; decoding rank ``j`` holds
  ``b^(r-j) * a^j`` vertices.  Decoding rank 0 *is* the multiplication
  layer; decoding rank ``r`` holds the ``a^r`` outputs.

Rank convention: we give ``G_r`` global ranks ``0 .. 2r+1`` (encoder ranks
``0..r``, decoding rank ``j`` at global rank ``r+1+j``).  The paper says
"outputs on rank 2r", implicitly merging the encoder-top and product
layers; the extra ``+1`` here is pure bookkeeping and affects no count the
paper states (rank *sizes* match the paper exactly).

Vertex naming: an encoder vertex at rank ``i`` is the tuple
``(m_1 .. m_i, e_{i+1} .. e_r)`` — multiplication indices chosen at the
outer ``i`` recursion levels, entry indices for the remaining levels — and
holds the value ``sum_e E[m_i, e] * child(..., e, ...)`` where ``E`` is
``U`` or ``V``.  A decoding vertex at rank ``j`` is
``(m_1 .. m_{r-j}, e_{r-j+1} .. e_r)`` (inner levels decoded first).
Tuples are packed into flat integers per slab (one slab per
(region, rank) pair), so the whole graph lives in numpy CSR arrays.

This naming makes Fact 1 transparent: fixing the first ``r-k``
multiplication digits selects one of the ``b^(r-k)`` vertex-disjoint
copies of ``G_k`` occupying the middle ``2(k+1)`` ranks
(:mod:`repro.cdag.decompose`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.errors import CDAGError
from repro.utils.indexing import MixedRadix

__all__ = ["Region", "CDAG", "Slab", "slab_layout", "csr_rows"]


class Region:
    """Region codes for the three parts of ``G_r``."""

    ENC_A = 0
    ENC_B = 1
    DEC = 2

    NAMES = {ENC_A: "enc_A", ENC_B: "enc_B", DEC: "dec"}


class Slab:
    """One (region, local rank) layer of the CDAG.

    A slab's vertices are contiguous global IDs ``offset .. offset+size``;
    within the slab a vertex is addressed by its mixed-radix packed tuple.
    """

    __slots__ = ("region", "local_rank", "offset", "size", "radix")

    def __init__(self, region: int, local_rank: int, offset: int, radix: MixedRadix):
        self.region = region
        self.local_rank = local_rank
        self.offset = offset
        self.radix = radix
        self.size = radix.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Slab({Region.NAMES[self.region]}, rank={self.local_rank}, "
            f"offset={self.offset}, size={self.size})"
        )


def slab_layout(a: int, b: int, r: int) -> tuple[dict[tuple[int, int], Slab], int]:
    """The canonical slab layout of ``G_r``: ENC_A ranks ``0..r``, then
    ENC_B ranks ``0..r``, then DEC ranks ``0..r``, offsets assigned in
    that order.  Returns ``(slabs, n_vertices)``.
    """
    slabs: dict[tuple[int, int], Slab] = {}
    offset = 0
    for region in (Region.ENC_A, Region.ENC_B):
        for i in range(r + 1):
            radix = MixedRadix([b] * i + [a] * (r - i))
            slabs[(region, i)] = Slab(region, i, offset, radix)
            offset += radix.size
    for j in range(r + 1):
        radix = MixedRadix([b] * (r - j) + [a] * j)
        slabs[(Region.DEC, j)] = Slab(Region.DEC, j, offset, radix)
        offset += radix.size
    return slabs, offset


class CDAG:
    """Computation DAG ``G_r`` of a Strassen-like algorithm.

    Built by :func:`repro.cdag.builder.build_cdag`; the constructor wires
    pre-computed arrays and is not meant to be called directly.

    Attributes
    ----------
    alg:
        The base :class:`~repro.bilinear.BilinearAlgorithm`.
    r:
        Number of recursion levels (``r >= 1``).
    n_vertices:
        Total vertex count.
    rank:
        Global rank of each vertex (``0 .. 2r+1``), int16 array.
    region:
        Region code of each vertex (:class:`Region`), int8 array.
    is_copy:
        Whether the vertex is a *copy* (single predecessor, coefficient
        exactly 1 — same value as its predecessor), bool array.
    pred_indptr, pred_indices, succ_indptr, succ_indices:
        The predecessor and successor adjacency as int32 CSR arrays
        (each row ascending).
    """

    def __init__(
        self,
        alg: BilinearAlgorithm,
        r: int,
        slabs: dict[tuple[int, int], Slab],
        pred_indptr: np.ndarray,
        pred_indices: np.ndarray,
        is_copy: np.ndarray,
    ):
        self.alg = alg
        self.r = r
        self.slabs = slabs
        self.pred_indptr = pred_indptr
        self.pred_indices = pred_indices
        self.is_copy = is_copy
        self.n_vertices = len(pred_indptr) - 1
        self._edge_keys: np.ndarray | None = None

        # Derived per-vertex metadata (flat arrays).
        rank = np.empty(self.n_vertices, dtype=np.int16)
        region = np.empty(self.n_vertices, dtype=np.int8)
        for (reg, local_rank), slab in slabs.items():
            global_rank = local_rank if reg != Region.DEC else r + 1 + local_rank
            rank[slab.offset : slab.offset + slab.size] = global_rank
            region[slab.offset : slab.offset + slab.size] = reg
        self.rank = rank
        self.region = region

        # Successor CSR (transpose of predecessor CSR).
        self.succ_indptr, self.succ_indices = _transpose_csr(
            pred_indptr, pred_indices, self.n_vertices
        )

    # ------------------------------------------------------------------
    # Identity / addressing
    # ------------------------------------------------------------------

    @property
    def a(self) -> int:
        """Entries per input matrix of the base case."""
        return self.alg.a

    @property
    def b(self) -> int:
        """Multiplications in the base case."""
        return self.alg.b

    def slab(self, region: int, local_rank: int) -> Slab:
        """The slab holding (region, local rank)."""
        try:
            return self.slabs[(region, local_rank)]
        except KeyError:
            raise CDAGError(
                f"no slab ({Region.NAMES.get(region, region)}, "
                f"rank {local_rank}) in G_{self.r}"
            ) from None

    def vertex_id(self, region: int, local_rank: int, digits: Sequence[int]) -> int:
        """Global vertex ID of the tuple-named vertex."""
        slab = self.slab(region, local_rank)
        return slab.offset + slab.radix.pack(digits)

    def vertex_digits(self, v: int) -> tuple[int, int, tuple[int, ...]]:
        """Inverse of :meth:`vertex_id`: ``(region, local_rank, digits)``."""
        slab = self.slab_of(v)
        return slab.region, slab.local_rank, slab.radix.unpack(v - slab.offset)

    def slab_of(self, v: int) -> Slab:
        """The slab containing global vertex ``v``."""
        if not 0 <= v < self.n_vertices:
            raise CDAGError(f"vertex {v} out of range")
        reg = int(self.region[v])
        rank = int(self.rank[v])
        local = rank if reg != Region.DEC else rank - self.r - 1
        return self.slabs[(reg, local)]

    def slab_vertices(self, region: int, local_rank: int) -> np.ndarray:
        """Global IDs of every vertex in a slab, ascending."""
        slab = self.slab(region, local_rank)
        return np.arange(slab.offset, slab.offset + slab.size, dtype=np.int64)

    # ------------------------------------------------------------------
    # Distinguished vertex sets
    # ------------------------------------------------------------------

    def inputs(self, side: str | None = None) -> np.ndarray:
        """Input vertices: encoder rank-0 vertices.

        ``side`` restricts to ``"A"`` or ``"B"``; default returns both
        (``2 a^r`` vertices, A first).
        """
        if side == "A":
            return self.slab_vertices(Region.ENC_A, 0)
        if side == "B":
            return self.slab_vertices(Region.ENC_B, 0)
        if side is None:
            return np.concatenate(
                [self.slab_vertices(Region.ENC_A, 0), self.slab_vertices(Region.ENC_B, 0)]
            )
        raise ValueError(f"side must be 'A', 'B' or None, got {side!r}")

    def outputs(self) -> np.ndarray:
        """Output vertices (``a^r`` entries of ``C``): decoding rank ``r``."""
        return self.slab_vertices(Region.DEC, self.r)

    def products(self) -> np.ndarray:
        """Multiplication vertices (``b^r``): decoding rank 0."""
        return self.slab_vertices(Region.DEC, 0)

    def encoder_top(self, side: str) -> np.ndarray:
        """Rank-``r`` vertices of one encoder (``b^r`` encoded combos)."""
        region = Region.ENC_A if side == "A" else Region.ENC_B
        return self.slab_vertices(region, self.r)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def pred_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The predecessor adjacency as CSR arrays ``(indptr, indices)``,
        both int32, as :func:`~repro.cdag.builder.build_cdag` stores them.

        This is the representation the array-backed simulators consume
        (one vectorised gather per schedule instead of per-vertex
        :meth:`predecessors` calls); the arrays are shared, not copied —
        treat them as read-only.
        """
        return self.pred_indptr, self.pred_indices

    def edge_key_index(self) -> np.ndarray:
        """Sorted int64 keys of every adjacency in *both* orientations
        (key ``u * n_vertices + v``), cached on first use.

        ``np.searchsorted`` over this array answers "is (u, v) an edge,
        in either direction?" for whole batches at once — the vectorised
        membership test :func:`repro.routing.verify.verify_path` runs
        instead of per-edge ``in predecessors()`` scans.  Keys fit int64
        comfortably: ``n_vertices`` is capped well below ``2**31``, and
        the products are formed in int64 although the CSR is int32.
        """
        keys = self._edge_keys
        if keys is None:
            indptr, indices = self.pred_csr()
            parents = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64), np.diff(indptr)
            )
            n = np.int64(self.n_vertices)
            keys = np.concatenate([parents * n + indices, indices * n + parents])
            keys.sort()
            self._edge_keys = keys
        return keys

    def predecessors(self, v: int) -> np.ndarray:
        """Vertices ``v`` directly depends on."""
        return self.pred_indices[self.pred_indptr[v] : self.pred_indptr[v + 1]]

    def successors(self, v: int) -> np.ndarray:
        """Vertices directly depending on ``v``."""
        return self.succ_indices[self.succ_indptr[v] : self.succ_indptr[v + 1]]

    def in_degree(self) -> np.ndarray:
        """In-degree (number of predecessors) of every vertex."""
        return np.diff(self.pred_indptr)

    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.succ_indptr)

    @property
    def n_edges(self) -> int:
        """Total number of dependence edges."""
        return len(self.pred_indices)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(child, parent)`` pairs (child = dependency)."""
        for parent in range(self.n_vertices):
            for child in self.predecessors(parent):
                yield int(child), parent

    def copy_parent(self, v: int) -> int | None:
        """If ``v`` is a copy, the vertex it copies; else ``None``."""
        if not self.is_copy[v]:
            return None
        preds = self.predecessors(v)
        return int(preds[0])

    # ------------------------------------------------------------------
    # Numeric evaluation (construction self-check)
    # ------------------------------------------------------------------

    def evaluate(self, A: np.ndarray, B: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate every vertex numerically, rank by rank.

        Returns a dict with per-slab value arrays plus ``"C"``: the output
        matrix assembled from the decoding top rank.  This exercises every
        edge of the CDAG, so comparing ``"C"`` against ``A @ B`` validates
        the whole construction (done in the test suite for every catalog
        algorithm).
        """
        n = self.alg.n0**self.r
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.shape != (n, n) or B.shape != (n, n):
            raise CDAGError(f"evaluate expects {n}x{n} matrices")
        a, b, r = self.a, self.b, self.r
        values: dict[str, np.ndarray] = {}

        for side, M, E in (("A", A, self.alg.U), ("B", B, self.alg.V)):
            # Rank 0: inputs in tuple order (e_1 .. e_r), e_i = level-i
            # block-entry index.  The digit tuple's row/col digits are the
            # base-n0 digits of the global row/col index (most significant
            # first), matching np reshape gymnastics below.
            current = _matrix_to_tuple_order(M, self.alg.n0, r)
            values[f"enc_{side}_0"] = current
            for i in range(1, r + 1):
                # current shape: (b^(i-1), a^(r-i+1)); contract leading a.
                current = current.reshape(b ** (i - 1), a, a ** (r - i))
                current = np.einsum("me,xey->xmy", E, current).reshape(
                    b**i * a ** (r - i)
                )
                values[f"enc_{side}_{i}"] = current

        products = values[f"enc_A_{r}"] * values[f"enc_B_{r}"]
        values["dec_0"] = products
        current = products
        for j in range(1, r + 1):
            current = current.reshape(b ** (r - j), b, a ** (j - 1))
            current = np.einsum("em,xmy->xey", self.alg.W, current).reshape(
                b ** (r - j) * a**j
            )
            values[f"dec_{j}"] = current

        values["C"] = _tuple_order_to_matrix(values[f"dec_{r}"], self.alg.n0, r)
        return values

    def __repr__(self) -> str:
        return (
            f"CDAG({self.alg.name}, r={self.r}, "
            f"|V|={self.n_vertices}, |E|={self.n_edges})"
        )


def csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``rows`` of a CSR adjacency as a CSR of their own:
    ``(row_indptr, pos, cols)``, where
    ``cols[row_indptr[i]:row_indptr[i + 1]]`` is row ``rows[i]`` and
    ``cols[j]`` is an entry of row ``rows[pos[j]]``.

    All three are int32, like the graph's own CSR; rows that select
    ``2**31`` entries or more (only a list repeating rows can) raise
    ``ValueError``."""
    starts = indptr[rows]
    counts = indptr[1:][rows]
    counts -= starts
    if int(counts.sum(dtype=np.int64)) >= 2**31:
        raise ValueError("csr_rows: the rows select 2**31 entries or more")
    row_indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(counts, out=row_indptr[1:])
    starts -= row_indptr[:-1]
    # np.repeat takes intp repeats: cast once for both.
    counts = counts.astype(np.intp)
    pos = np.repeat(np.arange(len(rows), dtype=np.int32), counts)
    gather = np.repeat(starts.astype(np.int32, copy=False), counts)
    del starts, counts
    gather += np.arange(len(gather), dtype=np.int32)
    cols = indices[gather]
    del gather
    return row_indptr, pos, cols


def _transpose_csr(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transpose a CSR adjacency (preds -> succs) without scipy: row
    ``c`` of the result lists, ascending, the rows whose entries hold
    ``c``.  One in-place sort of packed int64 keys ``c << shift | row``
    orders the entries; both outputs are int32."""
    out_indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(indices, minlength=n), out=out_indptr[1:])
    shift = int(n).bit_length()
    keys = indices.astype(np.int64)
    keys <<= shift
    keys |= np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    keys.sort()
    keys &= (1 << shift) - 1
    return out_indptr, keys.astype(np.int32)


def _matrix_to_tuple_order(M: np.ndarray, n0: int, r: int) -> np.ndarray:
    """Flatten an ``n0^r x n0^r`` matrix into tuple order.

    Tuple order: index ``(e_1 .. e_r)`` with ``e_i = (row_i, col_i)`` the
    level-``i`` base-``n0`` digits (most significant first) of the global
    (row, col).  I.e. axes interleave as row_1, col_1, row_2, col_2, ...
    """
    shape = [n0] * (2 * r)
    # M[row, col] with row = (row_1..row_r) msd-first, col likewise:
    arr = M.reshape(shape[: r] + shape[r:])  # (row_1..row_r, col_1..col_r)
    # Interleave to (row_1, col_1, row_2, col_2, ...).
    perm = []
    for i in range(r):
        perm.extend([i, r + i])
    return np.transpose(arr, perm).reshape(-1)


def _tuple_order_to_matrix(flat: np.ndarray, n0: int, r: int) -> np.ndarray:
    """Inverse of :func:`_matrix_to_tuple_order`."""
    arr = flat.reshape([n0] * (2 * r))
    # Currently (row_1, col_1, ..., row_r, col_r); separate rows and cols.
    perm = [2 * i for i in range(r)] + [2 * i + 1 for i in range(r)]
    n = n0**r
    return np.transpose(arr, perm).reshape(n, n)
