"""Loop-nest schedules for the classical algorithm's CDAG.

The classical algorithm's products are indexed by triples
``(i, j, k)`` per recursion level; concatenating the per-level digits
gives the global loop indices ``(I, J, K)``.  Ordering products by a
chosen permutation of ``(I, J, K)`` reproduces the classical loop nests
(``ijk``, ``ikj``, ...), and ordering by block-major digits reproduces
*blocked* multiplication — the schedule achieving the Hong-Kung bound
``Θ(n^3 / sqrt(M))`` (experiment E10's baseline).
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.errors import ScheduleError
from repro.schedules.base import demand_driven_schedule
from repro.telemetry.spans import traced

__all__ = ["loop_order_schedule", "classical_product_digits"]


def classical_product_digits(cdag: CDAG) -> np.ndarray:
    """Global loop indices ``(I, J, K)`` of each product of a classical
    CDAG, shape ``(b^r, 3)``.

    Each multiplication digit of ``classical(n0)`` encodes a level triple
    ``(i, j, k)`` packed as ``(i * n0 + j) * n0 + k``; the global indices
    are the base-``n0`` numbers with those digits (most significant
    first).
    """
    alg = cdag.alg
    n0 = alg.n0
    if alg.b != n0**3 or not _is_classical(alg):
        raise ScheduleError(
            "classical_product_digits requires a classical(n0) CDAG"
        )
    r = cdag.r
    products = np.arange(len(cdag.products()), dtype=np.int64)
    ii = np.zeros(len(products), dtype=np.int64)
    jj = np.zeros(len(products), dtype=np.int64)
    kk = np.zeros(len(products), dtype=np.int64)
    rest = products.copy()
    # Digits are most-significant-first in the packed index; peel from
    # the least significant side and build up with matching weights.
    for level in range(r):
        digit = rest % alg.b
        rest //= alg.b
        i = digit // (n0 * n0)
        j = (digit // n0) % n0
        k = digit % n0
        weight = n0**level
        ii += i * weight
        jj += j * weight
        kk += k * weight
    return np.stack([ii, jj, kk], axis=1)


@traced("schedules.loop_order")
def loop_order_schedule(cdag: CDAG, order: str = "ijk") -> np.ndarray:
    """Schedule of a classical CDAG with products in loop-nest order.

    ``order`` is a permutation of the letters ``i``, ``j``, ``k``; the
    leftmost letter is the outermost loop.  (``i`` indexes rows of A/C,
    ``j`` the contraction dimension, ``k`` columns of B/C.)
    """
    if sorted(order) != ["i", "j", "k"]:
        raise ScheduleError(f"order must permute 'ijk', got {order!r}")
    digits = classical_product_digits(cdag)
    cols = {"i": digits[:, 0], "j": digits[:, 1], "k": digits[:, 2]}
    # lexsort's last key is primary -> reverse the order string.
    keys = [cols[ch] for ch in reversed(order)]
    product_order = np.lexsort(keys)
    return demand_driven_schedule(cdag, product_order)


def _is_classical(alg) -> bool:
    """Heuristic identity check used to guard the digit decode."""
    import numpy as np

    n0 = alg.n0
    if alg.b != n0**3:
        return False
    for m in range(alg.b):
        i, rem = divmod(m, n0 * n0)
        j, k = divmod(rem, n0)
        u = np.zeros(alg.a)
        u[i * n0 + j] = 1
        v = np.zeros(alg.a)
        v[j * n0 + k] = 1
        if not (np.array_equal(alg.U[m], u) and np.array_equal(alg.V[m], v)):
            return False
    return True
