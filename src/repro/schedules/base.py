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
    _, step_ops, occ_time = gather_operands(cdag, schedule)
    viol = ~is_input[step_ops]
    viol &= first_occ[step_ops] >= occ_time
    if viol.any():
        i = int(np.argmax(viol))
        raise ScheduleError(
            f"vertex {int(schedule[occ_time[i]])} scheduled before "
            f"its predecessor {int(step_ops[i])}"
        )
    return schedule


def demand_driven_schedule(cdag: CDAG, product_order) -> np.ndarray:
    """Build a schedule from an order over the product vertices.

    For each product (in the given order): first emit its uncomputed
    encoder ancestors bottom-up (lazily — encoder values are computed
    only when a product needs them), then the product; decoder vertices
    are emitted eagerly, the moment their last operand completes.

    ``product_order`` is a permutation of ``range(b**r)`` (positions
    within ``cdag.products()``).
    """
    product_order = np.asarray(product_order, dtype=np.int64)
    products = cdag.products().tolist()
    if sorted(product_order.tolist()) != list(range(len(products))):
        raise ScheduleError(
            "product_order must be a permutation of range(#products)"
        )

    # The walks index Python lists and bytearrays, which the interpreter
    # reads faster than numpy scalars; CSR rows are list slices.
    pred_indptr = cdag.pred_indptr.tolist()
    pred_indices = cdag.pred_indices.tolist()
    succ_indptr = cdag.succ_indptr.tolist()
    succ_indices = cdag.succ_indices.tolist()
    is_input = cdag.in_degree() == 0
    computed = bytearray(is_input.tobytes())  # inputs start available
    # pending[v]: operands of v not yet computed (inputs pre-discounted).
    edge_parents = np.repeat(
        np.arange(cdag.n_vertices), np.diff(cdag.pred_indptr)
    )
    pending = np.bincount(
        edge_parents[~is_input[cdag.pred_indices]],
        minlength=cdag.n_vertices,
    ).tolist()
    # Decoder vertices above the products are released eagerly.
    release = bytearray(
        ((cdag.region == Region.DEC) & (cdag.rank > cdag.r + 1)).tobytes()
    )
    out: list[int] = []

    for idx in product_order.tolist():
        v = products[idx]
        if computed[v]:  # pragma: no cover - products are never decoder-released
            continue
        # DFS over uncomputed ancestors, emitting bottom-up, then v.  A
        # stack entry ``node`` expands it; ``~node`` emits it.
        stack = [v]
        while stack:
            node = stack.pop()
            if node < 0:
                node = ~node
                if computed[node]:
                    continue
                # Emit: record node as computed and release ready
                # decoder vertices above it.
                computed[node] = 1
                out.append(node)
                ready = [node]
                while ready:
                    u = ready.pop()
                    for s in succ_indices[succ_indptr[u]:succ_indptr[u + 1]]:
                        pending[s] -= 1
                        if not pending[s] and release[s] and not computed[s]:
                            computed[s] = 1
                            out.append(s)
                            ready.append(s)
                continue
            if computed[node]:
                continue
            stack.append(~node)
            for p in pred_indices[pred_indptr[node]:pred_indptr[node + 1]]:
                if not computed[p]:
                    stack.append(p)

    expected = int(np.count_nonzero(cdag.in_degree() > 0))
    if len(out) != expected:
        raise ScheduleError(
            f"demand-driven emission incomplete: {len(out)} of {expected}"
        )
    return np.asarray(out, dtype=np.int64)
