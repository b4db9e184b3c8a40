"""Schedule fundamentals: validation and demand-driven generation.

A *schedule* is the sequence of computed (non-input) vertices in
execution order; the I/O-complexity lower bound quantifies over all of
them, so the library ships several families (rank-order, random
topological, recursive depth-first, loop-order) built on the two
primitives here:

- :func:`validate_schedule` — vectorised permutation + topological
  checks;
- :func:`demand_driven_schedule` — given an order over the *product*
  vertices, emit each product's not-yet-computed encoder ancestors
  before it and every decoder vertex as soon as its operands complete.
  With products in lexicographic order this is exactly the depth-first
  recursive schedule; with products ordered by global (i, j, k) it is a
  classical loop-nest schedule; with a random product order it is a
  locality-free adversary.

The demand-driven order comes from one sort.  Product ``t`` of the
order runs *step* ``t``: its not-yet-computed encoder ancestors, then
the product, then the decoder vertices it completes.  Every computable
vertex gets the key ``(T, phase, within)`` and one ``np.lexsort``
emits them all:

- ``T`` is the step that emits the vertex.  A product's is its own
  position.  An encoder vertex's is the least position among the
  products that need it, pushed down the encoder rank by rank.  A
  decoder vertex's is the greatest among its operands', pushed up.
- ``phase`` is 0 for encoders, 1 for the product, 2 for decoders.
- ``within`` orders one step.
  Encoders: side B before side A, since the product's B operand is
  expanded first; then the post-order of the product's ancestry, each
  vertex's operands in descending entry digit.  That ancestry is a
  tree, because the path from a vertex up to the product fixes one
  entry digit per level, so the post-order is one position per vertex.
  Decoders: each has exactly one operand that step ``T`` emits (its
  *releaser*), because its operands' product cones partition its own
  cone and only one of them holds the product at position ``T``.  The
  step releases decoders depth-first from the product: a vertex's
  released successors are emitted in ascending entry digit, then
  visited last-first.  So the key is the pre-order of the releaser's
  path (siblings in descending digit), then the vertex's own digit.

Tree positions are positions in the complete ``a``-ary tree of entry
digits, which has ``1 + a + .. + a**r`` vertices; every ``within`` key
is below three times that.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, Region
from repro.errors import ScheduleError
from repro.simcore.plan import gather_operands

__all__ = ["validate_schedule", "demand_driven_schedule"]


def validate_schedule(cdag: CDAG, schedule) -> np.ndarray:
    """Check ``schedule`` is a topological permutation of all computable
    (non-input) vertices; return it as a contiguous int64 array.

    Vectorised over the whole schedule: first occurrences come from one
    reverse scatter and the topological check from the operand gather
    every simulation plan uses.  Each kind of violation reports its
    earliest schedule position.
    """
    return _validate_gather(cdag, schedule)[0]


def _validate_gather(cdag: CDAG, schedule):
    """:func:`validate_schedule`, also returning the operand gather
    ``(step_indptr, step_ops, occ_time)`` its topological check made,
    so a plan compiled next need not gather again."""
    schedule = np.ascontiguousarray(schedule, dtype=np.int64)
    n = cdag.n_vertices
    is_input = cdag.in_degree() == 0
    n_computable = n - int(np.count_nonzero(is_input))
    if len(schedule) != n_computable:
        raise ScheduleError(
            f"schedule has {len(schedule)} entries; CDAG has "
            f"{n_computable} computable vertices"
        )
    out_of_range = (schedule < 0) | (schedule >= n)
    if out_of_range.any():
        v = int(schedule[int(np.argmax(out_of_range))])
        raise ScheduleError(f"vertex {v} out of range")
    T = len(schedule)
    # First occurrence of each vertex (reverse assignment: the earliest
    # index wins); an occurrence that is not the first, or that names
    # an input, is rejected.
    first_occ = np.full(n, -1, dtype=np.int64)
    first_occ[schedule[::-1]] = np.arange(T - 1, -1, -1, dtype=np.int64)
    bad = is_input[schedule]
    bad |= first_occ[schedule] != np.arange(T, dtype=np.int64)
    if bad.any():
        v = int(schedule[int(np.argmax(bad))])
        raise ScheduleError(f"vertex {v} scheduled twice (or is an input)")
    # Topological: every non-input operand must be scheduled strictly
    # before its use.
    operands = gather_operands(cdag, schedule)
    _, step_ops, occ_time = operands
    viol = ~is_input[step_ops]
    viol &= first_occ[step_ops] >= occ_time
    if viol.any():
        i = int(np.argmax(viol))
        raise ScheduleError(
            f"vertex {int(schedule[occ_time[i]])} scheduled before "
            f"its predecessor {int(step_ops[i])}"
        )
    return schedule, operands


def demand_driven_schedule(cdag: CDAG, product_order) -> np.ndarray:
    """Build a schedule from an order over the product vertices.

    For each product (in the given order): first emit its uncomputed
    encoder ancestors bottom-up (lazily — encoder values are computed
    only when a product needs them), then the product; decoder vertices
    are emitted eagerly, the moment their last operand completes.

    ``product_order`` is a permutation of ``range(b**r)`` (positions
    within ``cdag.products()``).

    Every computable vertex is keyed ``(T, phase, within)`` as the
    module docstring sets out, and the keys are sorted once.  ``T`` is
    -1 on inputs, which sort first and are cut off, and ``b**r`` on a
    computable vertex no step emits: an encoder vertex no product
    needs, or a decoder vertex that has an operand never emitted or
    only inputs for operands.  ``phase`` and ``within`` share one key:
    side B's encoder post-order positions, then side A's, then the
    product, then the decoder release positions.
    """
    order = np.asarray(product_order, dtype=np.int64)
    n_products = len(cdag.products())
    if (
        order.shape != (n_products,)
        or not ((order >= 0) & (order < n_products)).all()
        or not (np.bincount(order, minlength=n_products) == 1).all()
    ):
        raise ScheduleError(
            "product_order must be a permutation of range(#products)"
        )

    alg, a, b, r = cdag.alg, cdag.a, cdag.b, cdag.r
    never = n_products
    T = np.empty(cdag.n_vertices, dtype=np.int64)
    within = np.empty(cdag.n_vertices, dtype=np.int64)

    def slab(arr: np.ndarray, region: int, rank: int, *shape: int) -> np.ndarray:
        s = cdag.slabs[(region, rank)]
        return arr[s.offset : s.offset + s.size].reshape(shape)

    position = np.empty(n_products, dtype=np.int64)
    position[order] = np.arange(n_products, dtype=np.int64)
    sizes = _tree_sizes(a, r)
    side_width = sizes[r]

    # Encoders: rank i is (M, m_i, E) above rank i-1's (M, e_i, E); an
    # edge per nonzero U[m_i, e_i] (V on side B).  Rows of zeros make
    # operand-free vertices, which are inputs.
    for side, (region, E) in enumerate(
        ((Region.ENC_B, alg.V), (Region.ENC_A, alg.U))
    ):
        no_operands = ~E.any(axis=1)
        slab(T, region, r, -1)[:] = position
        for i in range(r, 0, -1):
            upper = slab(T, region, i, b ** (i - 1), b, a ** (r - i))
            if i > 1:
                lower = slab(T, region, i - 1, b ** (i - 1), a, a ** (r - i))
                lower.fill(never)
                for m, e in zip(*np.nonzero(E)):
                    np.minimum(lower[:, e], upper[:, m], out=lower[:, e])
            upper[:, no_operands] = -1
        slab(T, region, 0, -1)[:] = -1  # the inputs proper
        for i in range(r + 1):
            slab(within, region, i, b**i, a ** (r - i))[:] = (
                side * side_width + _post_order_keys(a, r, i, sizes)
            )

    slab(T, Region.DEC, 0, -1)[:] = position
    slab(within, Region.DEC, 0, -1)[:] = 2 * side_width
    # Decoders: rank j is (M, e, E) above rank j-1's (M, m, E); an edge
    # per nonzero W[e, m].
    has_operands = alg.W.any(axis=1)[:, None]
    for j in range(1, r + 1):
        lower = slab(T, Region.DEC, j - 1, b ** (r - j), b, a ** (j - 1))
        upper = slab(T, Region.DEC, j, b ** (r - j), a, a ** (j - 1))
        upper.fill(-1)
        for e, m in zip(*np.nonzero(alg.W)):
            np.maximum(upper[:, e], lower[:, m], out=upper[:, e])
        # Operands that are all inputs leave nothing to release it.
        upper[(upper < 0) & has_operands] = never
        slab(within, Region.DEC, j, b ** (r - j), a**j)[:] = (
            2 * side_width + 1 + _release_keys(a, r, j, sizes)
        )

    n_inputs = int(np.count_nonzero(T < 0))
    expected = cdag.n_vertices - n_inputs
    missing = int(np.count_nonzero(T == never))
    if missing:
        raise ScheduleError(
            f"demand-driven emission incomplete: {expected - missing} of "
            f"{expected}"
        )
    return np.lexsort((within, T))[n_inputs:]


def _tree_sizes(a: int, height: int) -> list[int]:
    """``sizes[k]``: vertices of the complete ``a``-ary tree of height
    ``k``."""
    sizes = [1]
    for _ in range(height):
        sizes.append(1 + a * sizes[-1])
    return sizes


def _post_order_keys(a: int, r: int, i: int, sizes: list[int]) -> np.ndarray:
    """Post-order positions of encoder rank ``i`` in one product's
    ancestry, children in descending entry digit, per packed entry
    tail ``(e_(i+1) .. e_r)``: each digit ``e_k`` on the path skips
    ``a-1-e_k`` earlier sibling subtrees of height ``k-1``, and a
    vertex follows its own subtree."""
    tail = np.arange(a ** (r - i), dtype=np.int64)
    keys = np.full(len(tail), sizes[i] - 1, dtype=np.int64)
    for k in range(r, i, -1):
        tail, e = np.divmod(tail, a)
        keys += (a - 1 - e) * sizes[k - 1]
    return keys


def _release_keys(a: int, r: int, j: int, sizes: list[int]) -> np.ndarray:
    """Release order of decoder rank ``j`` in one step, per packed entry
    tail ``(e_(r-j+1) .. e_r)``: the releaser's pre-order position in
    the tree of decoder ranks ``0 .. r-1``, children in descending
    digit (each step down the path ``e_r .. e_(r-j+2)`` passes the
    parent and ``a-1-e`` earlier sibling subtrees), then ``e_(r-j+1)``
    ascending."""
    tail = np.arange(a**j, dtype=np.int64)
    keys = np.zeros(len(tail), dtype=np.int64)
    for q in range(j - 1):
        tail, e = np.divmod(tail, a)
        keys += 1 + (a - 1 - e) * sizes[r - 2 - q]
    return keys * a + tail
