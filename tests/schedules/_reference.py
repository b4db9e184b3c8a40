"""The demand-driven schedule generator as a walk, kept verbatim as the
golden reference for equivalence tests.

:func:`repro.schedules.base.demand_driven_schedule` no longer walks the
graph: it keys every vertex by the step that emits it and sorts the
keys once.  This file is now the only walk left: a per-product
depth-first search over the predecessor lists that emits encoder
ancestors bottom-up, then the product, then each decoder vertex the
moment its last operand completes.  The equivalence tests run both
over algorithms x recursion depths x product orders and assert
byte-identical schedules and identical error messages.  Do not optimise
this file — its value is that it stays the original semantics.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, Region
from repro.errors import ScheduleError


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
    products = cdag.products()
    if sorted(product_order.tolist()) != list(range(len(products))):
        raise ScheduleError(
            "product_order must be a permutation of range(#products)"
        )

    is_input = cdag.in_degree() == 0
    computed = is_input.copy()  # inputs start available
    # pending[v]: operands of v not yet computed (inputs pre-discounted).
    pending = np.diff(cdag.pred_indptr).astype(np.int64)
    edge_parents = np.repeat(
        np.arange(cdag.n_vertices), np.diff(cdag.pred_indptr)
    )
    input_edges = is_input[cdag.pred_indices]
    pending -= np.bincount(
        edge_parents[input_edges], minlength=cdag.n_vertices
    )
    is_dec = cdag.region == Region.DEC
    dec_rank_positive = is_dec & (cdag.rank > cdag.r + 1)
    out: list[int] = []

    def emit(v: int) -> None:
        """Record v as computed and eagerly release ready decoder
        vertices above it."""
        computed[v] = True
        out.append(v)
        stack = [v]
        while stack:
            node = stack.pop()
            for s in cdag.successors(node).tolist():
                pending[s] -= 1
                if pending[s] == 0 and dec_rank_positive[s] and not computed[s]:
                    computed[s] = True
                    out.append(s)
                    stack.append(s)

    for idx in product_order.tolist():
        v = int(products[idx])
        if computed[v]:  # pragma: no cover - products are never decoder-released
            continue
        # DFS over uncomputed ancestors, emitting bottom-up, then v.
        stack: list[tuple[int, bool]] = [(v, False)]
        while stack:
            node, expanded = stack.pop()
            if computed[node]:
                continue
            if expanded:
                emit(node)
                continue
            stack.append((node, True))
            for p in cdag.predecessors(node).tolist():
                if not computed[p]:
                    stack.append((p, False))

    expected = int(np.count_nonzero(cdag.in_degree() > 0))
    if len(out) != expected:
        raise ScheduleError(
            f"demand-driven emission incomplete: {len(out)} of {expected}"
        )
    return np.asarray(out, dtype=np.int64)
