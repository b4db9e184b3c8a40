"""Fact 1 and Lemma 1: cutting ``G_r`` into copies of ``G_k``.

Fact 1 (paper): for ``0 <= k <= r``, the middle ``2(k+1)`` ranks of
``G_r`` — encoder ranks ``r-k .. r`` plus decoding ranks ``0 .. k`` —
consist of ``b^(r-k)`` vertex-disjoint copies of ``G_k``, indexed by the
leading ``r-k`` multiplication digits shared by all their vertices.

Lemma 1: provided neither encoder consists solely of duplicated (trivial)
rows, at least a ``1/b^2`` fraction of these subcomputations can be
chosen *mutually input-disjoint* (no two share an input meta-vertex).
The proof is constructive — pick, under every "grandparent" prefix of
length ``r-k-2``, the descendant reached by one nontrivial ``U`` row then
one nontrivial ``V`` row — and :func:`input_disjoint_family` implements
exactly that construction (with the stronger "all of them" answer when
the algorithm has no multiple copying, e.g. Strassen).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cdag.builder import build_cdag
from repro.cdag.graph import CDAG, Region, slab_layout
from repro.cdag.metavertex import MetaVertexPartition
from repro.errors import CDAGError
from repro.telemetry.spans import add_counter, traced
from repro.utils.indexing import MixedRadix

__all__ = [
    "Subcomputation",
    "subcomputation",
    "subcomputation_count",
    "subcomputation_of_vertex",
    "middle_ranks_vertices",
    "input_disjoint_family",
    "verify_fact1",
]


@dataclass(frozen=True)
class Subcomputation:
    """One copy ``G_k^i`` of ``G_k`` inside ``G_r`` (Fact 1).

    Attributes
    ----------
    cdag:
        The ambient ``G_r``.
    k:
        Recursion depth of the copy.
    index:
        Copy index ``i`` in ``[0, b^(r-k))`` — the packed leading
        multiplication digits.
    """

    cdag: CDAG
    k: int
    index: int

    @cached_property
    def _gk_slabs(self) -> dict:
        """The slabs of a standalone ``G_k`` built from the same base
        algorithm: its layout depends only on ``a``, ``b`` and ``k``."""
        return slab_layout(self.cdag.a, self.cdag.b, self.k)[0]

    @property
    def prefix(self) -> tuple[int, ...]:
        """The leading ``r-k`` multiplication digits identifying the copy."""
        return MixedRadix([self.cdag.b] * (self.cdag.r - self.k)).unpack(self.index)

    # ------------------------------------------------------------------
    # Vertex sets (all as global ids in G_r)
    # ------------------------------------------------------------------

    def encoder_rank(self, side: str, local_rank: int) -> np.ndarray:
        """Vertices of this copy on encoder rank ``r-k+local_rank`` of
        ``G_r`` — i.e. rank ``local_rank`` of the copy's own encoder."""
        cdag, k = self.cdag, self.k
        if not 0 <= local_rank <= k:
            raise CDAGError(f"encoder rank {local_rank} outside 0..{k}")
        region = Region.ENC_A if side == "A" else Region.ENC_B
        slab = cdag.slab(region, cdag.r - k + local_rank)
        # Slab digits: (m_1 .. m_{r-k+local}, e_rest); our copy fixes the
        # first r-k digits; the rest enumerate b^local * a^(k-local).
        block = cdag.b**local_rank * cdag.a ** (k - local_rank)
        start = slab.offset + self.index * block
        return np.arange(start, start + block, dtype=np.int64)

    def decoder_rank(self, local_rank: int) -> np.ndarray:
        """Vertices of this copy on decoding rank ``local_rank`` (of both
        the copy and G_r — decoding ranks align)."""
        cdag, k = self.cdag, self.k
        if not 0 <= local_rank <= k:
            raise CDAGError(f"decoder rank {local_rank} outside 0..{k}")
        slab = cdag.slab(Region.DEC, local_rank)
        block = cdag.b ** (k - local_rank) * cdag.a**local_rank
        start = slab.offset + self.index * block
        return np.arange(start, start + block, dtype=np.int64)

    def inputs(self, side: str | None = None) -> np.ndarray:
        """The copy's inputs: encoder rank ``r-k`` vertices (``a^k`` per
        side)."""
        if side is not None:
            return self.encoder_rank(side, 0)
        return np.concatenate([self.encoder_rank("A", 0), self.encoder_rank("B", 0)])

    def outputs(self) -> np.ndarray:
        """The copy's outputs: decoding rank ``k`` vertices (``a^k``)."""
        return self.decoder_rank(self.k)

    def products(self) -> np.ndarray:
        """The copy's multiplication vertices (``b^k``)."""
        return self.decoder_rank(0)

    def all_vertices(self) -> np.ndarray:
        """Every vertex of the copy."""
        parts = [self.encoder_rank(s, i) for s in ("A", "B") for i in range(self.k + 1)]
        parts += [self.decoder_rank(j) for j in range(self.k + 1)]
        return np.concatenate(parts)

    def local_id(self, v: int) -> int:
        """Map a vertex of this copy to its id in a standalone ``G_k``
        built from the same base algorithm — the Fact 1 isomorphism."""
        cdag, k = self.cdag, self.k
        reg, local_rank, digits = cdag.vertex_digits(v)
        if reg == Region.DEC:
            if not 0 <= local_rank <= k:
                raise CDAGError(f"vertex {v} outside the copy's decoder ranks")
            inner_rank = local_rank
        else:
            inner_rank = local_rank - (cdag.r - k)
            if not 0 <= inner_rank <= k:
                raise CDAGError(f"vertex {v} outside the copy's encoder ranks")
        prefix, rest = digits[: cdag.r - k], digits[cdag.r - k :]
        if MixedRadix([cdag.b] * (cdag.r - k)).pack(prefix) != self.index:
            raise CDAGError(f"vertex {v} belongs to a different subcomputation")
        if reg == Region.DEC:
            radix = MixedRadix([cdag.b] * (k - inner_rank) + [cdag.a] * inner_rank)
        else:
            radix = MixedRadix([cdag.b] * inner_rank + [cdag.a] * (k - inner_rank))
        return self._gk_slabs[(reg, inner_rank)].offset + radix.pack(rest)

    def global_id(self, local_vertex: int) -> int:
        """Inverse of :meth:`local_id`: map a vertex of the standalone
        ``G_k`` into this copy inside ``G_r``."""
        cdag, k = self.cdag, self.k
        for slab in self._gk_slabs.values():
            if 0 <= local_vertex - slab.offset < slab.size:
                break
        else:
            raise CDAGError(f"vertex {local_vertex} out of range")
        reg, inner_rank = slab.region, slab.local_rank
        digits = slab.radix.unpack(local_vertex - slab.offset)
        if reg == Region.DEC:
            outer_rank = inner_rank
            radix = MixedRadix(
                [cdag.b] * (cdag.r - inner_rank) + [cdag.a] * inner_rank
            )
        else:
            outer_rank = cdag.r - k + inner_rank
            radix = MixedRadix(
                [cdag.b] * outer_rank + [cdag.a] * (cdag.r - outer_rank)
            )
        full_digits = self.prefix + digits
        return cdag.slab(reg, outer_rank).offset + radix.pack(full_digits)

    def __repr__(self) -> str:
        return f"Subcomputation(k={self.k}, index={self.index}, prefix={self.prefix})"


def subcomputation_count(cdag: CDAG, k: int) -> int:
    """Number of ``G_k`` copies in ``G_r`` (Fact 1): ``b^(r-k)``."""
    _check_k(cdag, k)
    return cdag.b ** (cdag.r - k)


def subcomputation(cdag: CDAG, k: int, index: int) -> Subcomputation:
    """The ``index``-th copy of ``G_k`` in ``G_r``."""
    _check_k(cdag, k)
    count = subcomputation_count(cdag, k)
    if not 0 <= index < count:
        raise CDAGError(f"subcomputation index {index} outside [0, {count})")
    return Subcomputation(cdag, k, index)


def subcomputation_of_vertex(cdag: CDAG, v: int, k: int) -> int | None:
    """Index of the ``G_k`` copy containing vertex ``v``, or ``None`` if
    ``v`` lies outside the middle ``2(k+1)`` ranks."""
    _check_k(cdag, k)
    reg, local_rank, digits = cdag.vertex_digits(v)
    if reg == Region.DEC:
        if local_rank > k:
            return None
    else:
        if local_rank < cdag.r - k:
            return None
    prefix = digits[: cdag.r - k]
    return MixedRadix([cdag.b] * (cdag.r - k)).pack(prefix)


def middle_ranks_vertices(cdag: CDAG, k: int) -> np.ndarray:
    """All vertices of ``G_{r,k}`` (the middle ``2(k+1)`` ranks)."""
    _check_k(cdag, k)
    parts = []
    for region in (Region.ENC_A, Region.ENC_B):
        for i in range(cdag.r - k, cdag.r + 1):
            parts.append(cdag.slab_vertices(region, i))
    for j in range(k + 1):
        parts.append(cdag.slab_vertices(Region.DEC, j))
    return np.concatenate(parts)


@traced("cdag.input_disjoint_family")
def input_disjoint_family(
    cdag: CDAG,
    k: int,
    meta: MetaVertexPartition,
) -> list[int]:
    """A mutually input-disjoint family of ``G_k`` copies (Lemma 1).

    Returns subcomputation indices.  If the CDAG has no duplicated
    vertices at the copies' input rank, *all* ``b^(r-k)`` copies are
    returned (they are automatically disjoint — a chain never has two
    vertices on one rank).  Otherwise the paper's constructive selection
    is used: requires ``k <= r-2`` and at least one nontrivial row in each
    encoder, and returns exactly ``b^(r-k-2)`` indices.

    Raises
    ------
    CDAGError
        If the Lemma 1 precondition fails (an encoder with only trivial
        rows — the algorithm is then no better than classical, per the
        paper's discussion after Lemma 1).
    """
    _check_k(cdag, k)
    alg, r = cdag.alg, cdag.r
    n_copies = subcomputation_count(cdag, k)

    # Fast path: no duplicated input-rank vertices at all.
    input_rank_vertices = np.concatenate(
        [cdag.slab_vertices(Region.ENC_A, r - k), cdag.slab_vertices(Region.ENC_B, r - k)]
    )
    labels = meta.label[input_rank_vertices]
    if len(np.unique(labels)) == len(labels):
        add_counter("family_size", n_copies)
        return list(range(n_copies))

    if k > r - 2:
        raise CDAGError(
            "Lemma 1 construction needs k <= r-2 when the inputs contain "
            f"duplicated vertices (got k={k}, r={r})"
        )

    nontrivial_u = np.nonzero(~alg.trivial_rows("A"))[0]
    nontrivial_v = np.nonzero(~alg.trivial_rows("B"))[0]
    if len(nontrivial_u) == 0 or len(nontrivial_v) == 0:
        raise CDAGError(
            "Lemma 1 precondition fails: an encoder has only trivial rows "
            "(the algorithm computes no linear combinations of one input "
            "matrix and is not fast)"
        )
    m_star = int(nontrivial_u[0])  # fresh A-side values
    m_star2 = int(nontrivial_v[0])  # fresh B-side values

    # Family: every grandparent prefix p (length r-k-2) extended by
    # (m_star, m_star2).  Freshness of the A side survives the second
    # step only if the path from rank r-k-1 to r-k keeps values within
    # the subtree, which it does (copies only propagate downward in the
    # recursion tree).
    prefix_radix = MixedRadix([cdag.b] * (r - k))
    family = [
        prefix_radix.pack(tuple(p) + (m_star, m_star2))
        for p in np.ndindex(*([cdag.b] * (r - k - 2)))
    ]

    # Defensive check: the construction must produce a mutually
    # input-disjoint family (certifies the meta-vertex reasoning).
    if not _family_is_input_disjoint(cdag, k, meta, family):  # pragma: no cover
        raise CDAGError("internal error: Lemma 1 family is not input-disjoint")
    add_counter("family_size", len(family))
    return family


def _family_is_input_disjoint(
    cdag: CDAG, k: int, meta: MetaVertexPartition, family: list[int]
) -> bool:
    seen: set[int] = set()
    for index in family:
        sub = Subcomputation(cdag, k, index)
        labels = set(meta.label[sub.inputs()].tolist())
        if labels & seen:
            return False
        seen |= labels
    return True


@traced("cdag.verify_fact1")
def verify_fact1(cdag: CDAG, k: int) -> dict:
    """Empirically verify Fact 1 on ``G_{r,k}``.

    Checks (a) the copies partition the middle-rank vertices, (b) every
    edge among middle-rank vertices stays within one copy, and (c) each
    copy is isomorphic to the standalone ``G_k`` (via :meth:`local_id`,
    spot-checking edge correspondence).  Returns a report dict.
    """
    _check_k(cdag, k)
    n_copies = subcomputation_count(cdag, k)
    middle = middle_ranks_vertices(cdag, k)
    middle_set = set(middle.tolist())
    add_counter("copies_checked", n_copies)
    add_counter("middle_vertices", len(middle))

    covered: set[int] = set()
    for i in range(n_copies):
        vertices = Subcomputation(cdag, k, i).all_vertices()
        vset = set(vertices.tolist())
        if covered & vset:
            return {"ok": False, "reason": f"copies {i} overlap earlier copies"}
        covered |= vset
    if covered != middle_set:
        return {"ok": False, "reason": "copies do not cover the middle ranks"}

    # Isomorphism check: within each spot-checked copy, the in-copy
    # predecessor sets must map exactly onto the standalone G_k's
    # predecessor sets under local_id.  (Bottom-rank vertices have no
    # in-copy predecessors, matching G_k's inputs, which have none.)
    gk = build_cdag(cdag.alg, k)
    for i in range(min(n_copies, 4)):
        sub = Subcomputation(cdag, k, i)
        vset = set(sub.all_vertices().tolist())
        for v in vset:
            lv = sub.local_id(v)
            preds_local = sorted(
                sub.local_id(p) for p in cdag.predecessors(v).tolist() if p in vset
            )
            gk_preds = sorted(gk.predecessors(lv).tolist())
            if preds_local != gk_preds:
                return {
                    "ok": False,
                    "reason": f"edge mismatch at vertex {v} of copy {i}",
                }
    return {"ok": True, "n_copies": n_copies, "middle_vertices": len(middle)}


def _check_k(cdag: CDAG, k: int) -> None:
    if not 0 <= k <= cdag.r:
        raise CDAGError(f"k must be in [0, {cdag.r}], got {k}")
