"""Bilinear matrix-multiplication algorithms as ``<U, V, W>`` triples.

A *Strassen-like* algorithm for multiplying ``n0 x n0`` matrices (paper,
Section 3) is determined by its base case: ``b`` multiplications, each of a
linear combination of entries of ``A`` with a linear combination of entries
of ``B``, followed by linear combinations of the products giving the
entries of ``C``.  Algebraically this is a rank-``b`` decomposition of the
matrix-multiplication tensor, written as three coefficient matrices:

- ``U`` of shape ``(b, a)``: row ``m`` gives the coefficients of the
  ``A``-side linear combination of multiplication ``m``;
- ``V`` of shape ``(b, a)``: same for the ``B`` side;
- ``W`` of shape ``(a, b)``: row ``e`` gives the coefficients with which
  the ``b`` products combine into output entry ``e``;

where ``a = n0**2`` and entries are indexed row-major
(:func:`repro.utils.indexing.pair_index`).

The exact correctness condition is the system of *Brent equations*:

    sum_m U[m, (i,j)] * V[m, (k,l)] * W[(p,q), m]
        = [j == k] * [i == p] * [l == q]

for all ``i, j, k, l, p, q`` in ``[0, n0)``.  :meth:`BilinearAlgorithm.validate`
checks all ``a^3`` of them exactly.

This module is substrate for the whole library: the CDAG builder
(:mod:`repro.cdag`), the routing construction (:mod:`repro.routing`), the
numeric executors (:mod:`repro.linalg`), and the bound formulas
(:mod:`repro.bounds`) all consume :class:`BilinearAlgorithm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AlgorithmError, BrentEquationError
from repro.utils.indexing import pair_index, pair_unindex

__all__ = [
    "BilinearAlgorithm",
    "matmul_tensor",
    "solve_decoder",
]


def matmul_tensor(n0: int) -> np.ndarray:
    """The ``n0 x n0`` matrix-multiplication tensor.

    Returns ``T`` of shape ``(a, a, a)`` with
    ``T[(i,j), (k,l), (p,q)] = [j==k][i==p][l==q]`` — the right-hand side
    of the Brent equations.
    """
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    a = n0 * n0
    T = np.zeros((a, a, a), dtype=np.int64)
    for i in range(n0):
        for j in range(n0):
            for m in range(n0):
                T[
                    pair_index(i, j, n0),
                    pair_index(j, m, n0),
                    pair_index(i, m, n0),
                ] = 1
    return T


@dataclass(frozen=True)
class BilinearAlgorithm:
    """An exact bilinear algorithm for ``n0 x n0`` matrix multiplication.

    Instances are immutable; the coefficient arrays are set non-writeable.
    Construction validates shapes but not correctness — call
    :meth:`validate` (the catalog constructors do this for you).

    Attributes
    ----------
    n0:
        Base matrix dimension (paper's ``n_0``).
    U, V:
        Encoding matrices, shape ``(b, n0**2)``.
    W:
        Decoding matrix, shape ``(n0**2, b)``.
    name:
        Human-readable identifier used in reports.
    """

    n0: int
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    name: str = "unnamed"
    #: Free-form notes (e.g. provenance of the coefficients).
    notes: str = field(default="", compare=False)

    def __post_init__(self):
        n0 = self.n0
        if n0 <= 0:
            raise AlgorithmError(f"n0 must be positive, got {n0}")
        a = n0 * n0
        U = np.ascontiguousarray(np.asarray(self.U, dtype=np.float64))
        V = np.ascontiguousarray(np.asarray(self.V, dtype=np.float64))
        W = np.ascontiguousarray(np.asarray(self.W, dtype=np.float64))
        if U.ndim != 2 or U.shape[1] != a:
            raise AlgorithmError(
                f"U must have shape (b, {a}), got {U.shape}"
            )
        if V.shape != U.shape:
            raise AlgorithmError(
                f"V must match U's shape {U.shape}, got {V.shape}"
            )
        if W.shape != (a, U.shape[0]):
            raise AlgorithmError(
                f"W must have shape ({a}, {U.shape[0]}), got {W.shape}"
            )
        if U.shape[0] == 0:
            raise AlgorithmError("algorithm must have at least one product")
        for arr in (U, V, W):
            arr.flags.writeable = False
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)

    # ------------------------------------------------------------------
    # Basic parameters (paper notation)
    # ------------------------------------------------------------------

    @property
    def a(self) -> int:
        """Number of entries per input matrix (paper's ``a = n0^2``)."""
        return self.n0 * self.n0

    @property
    def b(self) -> int:
        """Number of multiplications in the base case (paper's ``b``)."""
        return self.U.shape[0]

    @property
    def omega0(self) -> float:
        """Arithmetic exponent ``ω0 = 2 log_a b = log_{n0} b``.

        The recursive algorithm performs ``Θ(n^ω0)`` arithmetic operations
        on ``n x n`` inputs.
        """
        return math.log(self.b) / math.log(self.n0)

    @property
    def is_strassen_like(self) -> bool:
        """``True`` iff the arithmetic complexity is ``o(n^3)``.

        The paper's Theorem 1 concerns exactly these algorithms
        (``ω0 < 3``); the classical algorithm is the boundary case where
        the bound still evaluates but is superseded by Hong–Kung.
        """
        return self.b < self.n0 ** 3

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------

    def residual_tensor(self) -> np.ndarray:
        """``sum_m U_m ⊗ V_m ⊗ W_m`` minus the matmul tensor.

        All-zero iff the algorithm is correct.
        """
        realised = np.einsum("mx,my,zm->xyz", self.U, self.V, self.W)
        return realised - matmul_tensor(self.n0)

    def validate(self, atol: float = 1e-9) -> "BilinearAlgorithm":
        """Check the Brent equations; raise :class:`BrentEquationError`
        on failure.  Returns ``self`` for chaining."""
        residual = self.residual_tensor()
        bad = np.argwhere(np.abs(residual) > atol)
        if len(bad):
            x, y, z = (int(v) for v in bad[0])
            i, j = pair_unindex(x, self.n0)
            k, m = pair_unindex(y, self.n0)
            p, q = pair_unindex(z, self.n0)
            raise BrentEquationError(
                f"algorithm {self.name!r} violates the Brent equation at "
                f"a[{i}{j}], b[{k}{m}], c[{p}{q}]: residual "
                f"{residual[x, y, z]:+.3g} ({len(bad)} violations total)",
                index=(i, j, k, m, p, q),
            )
        return self

    def is_valid(self, atol: float = 1e-9) -> bool:
        """Boolean form of :meth:`validate`."""
        return bool(np.all(np.abs(self.residual_tensor()) <= atol))

    # ------------------------------------------------------------------
    # Structural predicates used by the paper's assumptions
    # ------------------------------------------------------------------

    def trivial_rows(self, side: str = "A") -> np.ndarray:
        """Boolean mask of *trivial* encoding rows on the given side.

        A row is trivial when its linear combination has a single nonzero
        coefficient — the resulting CDAG vertex is (up to scaling) a copy
        of an input, which the paper's single-use assumption exempts.
        """
        E = self._encoder(side)
        return np.count_nonzero(E, axis=1) == 1

    def single_use_violations(self, side: str = "A") -> list[tuple[int, int]]:
        """Pairs of multiplications that share a *nontrivial* combination.

        The paper assumes "every nontrivial linear combination of elements
        of the input matrices is used in only one multiplication"; in
        ``<U,V,W>`` form a violation is two identical nontrivial rows of
        the same encoder.  Returns all violating pairs (empty for every
        algorithm in the catalog).
        """
        E = self._encoder(side)
        nontrivial = ~self.trivial_rows(side)
        out: list[tuple[int, int]] = []
        rows = [tuple(row) for row in E]
        for m1 in range(self.b):
            if not nontrivial[m1]:
                continue
            for m2 in range(m1 + 1, self.b):
                if nontrivial[m2] and rows[m1] == rows[m2]:
                    out.append((m1, m2))
        return out

    def satisfies_single_use(self) -> bool:
        """Whether the paper's main assumption holds for this base graph."""
        return not (
            self.single_use_violations("A") or self.single_use_violations("B")
        )

    def has_multiple_copying(self) -> bool:
        """Whether some input entry is used *alone* in several products.

        This is exactly the situation producing multiple copying in the
        recursive CDAG (paper, Figure 2): a trivial combination replicated
        across multiplications yields a meta-vertex branching at an input.
        """
        for side in ("A", "B"):
            E = self._encoder(side)
            trivial = self.trivial_rows(side)
            seen: set[int] = set()
            for m in np.nonzero(trivial)[0]:
                entry = int(np.nonzero(E[m])[0][0])
                if entry in seen:
                    return True
                seen.add(entry)
        return False

    def encoder_components(self, side: str = "A") -> list[set[int]]:
        """Connected components of the encoding graph's bipartite support.

        Vertices are ``a`` input entries plus ``b`` combination vertices;
        an input entry and a combination are adjacent when the coefficient
        is nonzero.  Components are returned as sets of multiplication
        indices (isolated inputs — entries used by no product — are
        ignored; they cannot occur in a correct algorithm).

        The edge-expansion technique of [6] requires connected encoders
        and decoders; this census identifies where it fails (experiment
        E12 / E1).
        """
        E = self._encoder(side)
        return _bipartite_components(E != 0)

    def decoder_components(self) -> list[set[int]]:
        """Connected components of the decoding graph's bipartite support
        (products vs output entries), as sets of multiplication indices."""
        return _bipartite_components(self.W.T != 0)

    # ------------------------------------------------------------------
    # Execution on concrete matrices (base case only; recursion lives in
    # :mod:`repro.linalg.bilinear_apply`)
    # ------------------------------------------------------------------

    def apply_base(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Run one (non-recursive) step on ``n0 x n0`` numeric matrices.

        Exercises exactly the dataflow of the base graph: encode, multiply
        pointwise, decode.  Used by tests to cross-check the Brent
        validation against brute numeric evaluation.
        """
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.shape != (self.n0, self.n0) or B.shape != (self.n0, self.n0):
            raise AlgorithmError(
                f"apply_base expects {self.n0}x{self.n0} matrices"
            )
        products = (self.U @ A.reshape(-1)) * (self.V @ B.reshape(-1))
        return (self.W @ products).reshape(self.n0, self.n0)

    # ------------------------------------------------------------------

    def _encoder(self, side: str) -> np.ndarray:
        if side == "A":
            return self.U
        if side == "B":
            return self.V
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")

    def __repr__(self) -> str:
        return (
            f"BilinearAlgorithm(name={self.name!r}, n0={self.n0}, "
            f"b={self.b}, omega0={self.omega0:.4f})"
        )


def solve_decoder(
    n0: int, U: np.ndarray, V: np.ndarray, atol: float = 1e-8
) -> np.ndarray:
    """Recover the unique decoder ``W`` from the products ``<U, V, ·>``.

    The Brent equations are *linear* in ``W`` once ``U`` and ``V`` are
    fixed: with ``K[(x,y), m] = U[m,x] V[m,y]`` every output entry ``z``
    must satisfy ``K @ W[z, :] = T[:, :, z].ravel()``.  Solving the
    least-squares system and checking the residual both recovers ``W``
    and certifies that the chosen products *can* compute matrix
    multiplication.

    Raises
    ------
    AlgorithmError
        If no exact decoder exists (the products do not span the matmul
        tensor) — with the offending output entry in the message.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    a = n0 * n0
    if U.shape[1] != a or V.shape != U.shape:
        raise AlgorithmError("U and V must both have shape (b, n0**2)")
    T = matmul_tensor(n0).astype(np.float64)
    K = np.einsum("mx,my->xym", U, V).reshape(a * a, U.shape[0])
    W = np.zeros((a, U.shape[0]))
    for z in range(a):
        target = T[:, :, z].reshape(-1)
        sol, *_ = np.linalg.lstsq(K, target, rcond=None)
        if np.max(np.abs(K @ sol - target)) > atol:
            p, q = pair_unindex(z, n0)
            raise AlgorithmError(
                f"no exact decoder exists: output c[{p}{q}] is not in the "
                "span of the given products"
            )
        # Snap near-integers/near-halves produced by floating lstsq so the
        # catalog stays exact.
        snapped = np.round(sol * 2) / 2
        W[z] = snapped if np.max(np.abs(K @ snapped - target)) <= atol else sol
    return W


def _bipartite_components(support: np.ndarray) -> list[set[int]]:
    """Components of a (rows=combinations, cols=entries) support matrix,
    reported as sets of row indices, via union-find."""
    from repro.utils.unionfind import UnionFind

    n_rows, n_cols = support.shape
    uf = UnionFind(n_rows + n_cols)
    rows, cols = np.nonzero(support)
    for r, c in zip(rows.tolist(), cols.tolist()):
        uf.union(r, n_rows + c)
    groups: dict[int, set[int]] = {}
    for r in range(n_rows):
        groups.setdefault(uf.find(r), set()).add(r)
    return sorted(groups.values(), key=lambda s: min(s))
