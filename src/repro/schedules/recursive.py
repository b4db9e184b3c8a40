"""The depth-first recursive schedule — the communication-efficient order.

Visiting the recursion tree depth-first (products in lexicographic order
of their multiplication digits, encoders lazy, decoders eager) makes each
subcomputation ``G_k`` a contiguous run of the schedule.  Once a
subproblem's working set (``Θ(a^k)`` values) fits in cache the whole
subproblem runs without spilling, giving I/O

    O( (n / sqrt(M))^(2 log_a b) * M )

— the matching upper bound to the paper's Theorem 1 (attained by the
algorithm of [3] in the parallel setting).  Experiment E9 measures this
schedule against the bound.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.schedules.base import demand_driven_schedule
from repro.telemetry.spans import traced

__all__ = ["recursive_schedule"]


@traced("schedules.recursive")
def recursive_schedule(cdag: CDAG) -> np.ndarray:
    """Depth-first recursive schedule of ``G_r``.

    Products in lexicographic multiplication-digit order; because product
    slab indices *are* the packed digit tuples, the natural order
    ``0 .. b^r - 1`` is exactly the depth-first traversal.
    """
    return demand_driven_schedule(cdag, np.arange(len(cdag.products())))
