"""Rank-order (breadth-first) schedule.

Computes every vertex of rank 1, then every vertex of rank 2, and so on —
the "compute all encodings, then all products, then all decodings" order.
Its working set at the multiplication layer is the full ``b^r`` products,
so for ``M`` much smaller than ``b^r`` it spills nearly everything: the
natural *bad* baseline against which blocking (the recursive schedule)
shows its factor (experiment E9).
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.telemetry.spans import traced

__all__ = ["rank_order_schedule"]


@traced("schedules.rank_order")
def rank_order_schedule(cdag: CDAG) -> np.ndarray:
    """All computable vertices sorted by (rank, vertex id)."""
    computable = np.nonzero(cdag.in_degree() > 0)[0]
    order = np.lexsort((computable, cdag.rank[computable]))
    return computable[order]
