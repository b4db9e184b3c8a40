"""Schedule genome: the autotuner's candidate encoding.

A candidate schedule is encoded as a *product-order permutation* — the
order in which the ``b^r`` product vertices of ``G_r`` are visited.
:func:`repro.schedules.base.demand_driven_schedule` maps any such
permutation to a full valid topological schedule (encoders emitted
lazily, decoders eagerly), so the genome space needs no topological
repair: every permutation is executable, and the identity permutation
is exactly the recursive depth-first schedule.  :func:`genome_key`
content-addresses a permutation for the annealer's ledger.

Local moves
-----------
- :func:`move_block_swap` — swap two equal-length contiguous blocks;
- :func:`move_block_rotate` — rotate a contiguous block by a random
  shift (a cheaper perturbation that keeps block contents together);
- :func:`move_digit_regroup` — *greedy repair*: stable-sort a random
  window by the products' outer base-``b`` digit prefix, restoring
  recursive locality at a random depth without touching the rest;
- :func:`move_hybrid_level` — re-block the whole permutation by the
  outer-``d`` digit prefix (stable), i.e. move along the
  blocked/recursive hybridisation axis.

The deterministic one-parameter family :func:`hybrid_order` sweeps that
axis directly — ``d = 0`` is the recursive order, intermediate ``d``
iterates inner subtrees across the ``b^d`` outer blocks (a blocked
traversal over subtree tiles; the endpoints ``d = 0`` and ``d = r``
both degenerate to the recursive order, since rotating *every* digit
out leaves nothing inner) — and is one of E15's fixed families.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GenomeContext",
    "genome_key",
    "hybrid_order",
    "move_block_swap",
    "move_block_rotate",
    "move_digit_regroup",
    "move_hybrid_level",
    "MOVES",
    "random_move",
]

@dataclass(frozen=True)
class GenomeContext:
    """Static shape of the search space for one ``(alg, r)`` instance."""

    n_products: int
    b: int
    r: int

    def __post_init__(self):
        if self.b**self.r != self.n_products:
            raise ValueError(
                f"n_products={self.n_products} is not b^r="
                f"{self.b}^{self.r}"
            )


def _as_order(order, n_products: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(order, dtype=np.int64)
    if n_products is not None and len(arr) != n_products:
        raise ValueError(
            f"order has {len(arr)} entries, expected {n_products}"
        )
    return arr


def genome_key(order) -> str:
    """Stable content key of a candidate (blake2b over the canonical
    int64 bytes)."""
    arr = _as_order(order)
    h = hashlib.blake2b(digest_size=16)
    h.update(len(arr).to_bytes(8, "little"))
    h.update(arr.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Deterministic hybrid family
# ----------------------------------------------------------------------


def hybrid_order(ctx: GenomeContext, d: int) -> np.ndarray:
    """The blocked/recursive hybrid order at outer depth ``d``.

    Products are visited sorted by ``(inner suffix, outer prefix)``
    where the prefix is the top ``d`` base-``b`` digits: ``d = 0``
    reproduces the recursive (lexicographic) order; ``0 < d < r`` turns
    the outer-``d`` recursion levels into the *innermost* loops, the
    demand-driven analogue of a blocked loop nest over subtree tiles.
    The family is cyclic: at ``d = r`` the suffix is empty and the
    order is recursive again.
    """
    if not 0 <= d <= ctx.r:
        raise ValueError(f"hybrid depth d={d} outside 0..{ctx.r}")
    p = np.arange(ctx.n_products, dtype=np.int64)
    inner = ctx.b ** (ctx.r - d)
    # lexsort: last key is primary -> sort by suffix, then prefix.
    return np.lexsort((p // inner, p % inner)).astype(np.int64)


# ----------------------------------------------------------------------
# Local moves
# ----------------------------------------------------------------------
#
# Every move takes (order, rng, ctx) and returns a *new* permutation or
# None when the draw degenerated (e.g. overlapping blocks); the caller
# decides whether a degenerate draw is retried or dropped.  Moves only
# consume rng draws — no global state — so a seed replays the exact
# proposal sequence.


def move_block_swap(order, rng, ctx: GenomeContext) -> np.ndarray | None:
    """Swap two random equal-length contiguous blocks (one ``integers``
    call for the length, one for the endpoints; overlapping draws return
    None)."""
    n = ctx.n_products
    length = int(rng.integers(1, max(2, n // 8)))
    i, j = sorted(rng.integers(0, n - length, size=2).tolist())
    if i + length > j:
        return None
    out = _as_order(order, n).copy()
    out[i : i + length], out[j : j + length] = (
        order[j : j + length].copy(),
        order[i : i + length].copy(),
    )
    return out


def move_block_rotate(order, rng, ctx: GenomeContext) -> np.ndarray | None:
    """Rotate a random contiguous block by a random shift."""
    n = ctx.n_products
    length = int(rng.integers(2, max(3, n // 4)))
    length = min(length, n)
    i = int(rng.integers(0, n - length + 1))
    k = int(rng.integers(1, length))
    out = _as_order(order, n).copy()
    out[i : i + length] = np.roll(out[i : i + length], k)
    return out


def move_digit_regroup(order, rng, ctx: GenomeContext) -> np.ndarray | None:
    """Greedy repair: stable-sort a random window by the products'
    outer ``d``-digit prefix, restoring recursive locality there."""
    n = ctx.n_products
    d = int(rng.integers(1, ctx.r + 1))
    length = int(rng.integers(2, max(3, n // 2)))
    length = min(length, n)
    i = int(rng.integers(0, n - length + 1))
    out = _as_order(order, n).copy()
    window = out[i : i + length]
    prefix = window // (ctx.b ** (ctx.r - d))
    out[i : i + length] = window[np.argsort(prefix, kind="stable")]
    return out


def move_hybrid_level(order, rng, ctx: GenomeContext) -> np.ndarray | None:
    """Re-block the whole permutation by the outer-``d`` digit prefix
    (stable), keeping the current relative order inside each block."""
    d = int(rng.integers(0, ctx.r + 1))
    arr = _as_order(order, ctx.n_products)
    if d == 0:
        return arr.copy()
    prefix = arr // (ctx.b ** (ctx.r - d))
    return arr[np.argsort(prefix, kind="stable")]


#: The (name, move) pairs in a fixed order — the annealer indexes into
#: this with rng draws, so the order is part of the reproducibility
#: contract.
MOVES: tuple[tuple[str, object], ...] = (
    ("block_swap", move_block_swap),
    ("block_rotate", move_block_rotate),
    ("digit_regroup", move_digit_regroup),
    ("hybrid_level", move_hybrid_level),
)


def random_move(order, rng, ctx: GenomeContext) -> tuple[str, np.ndarray]:
    """Draw a move kind, apply it, and retry degenerate draws (bounded).

    Returns ``(move_name, new_order)``; after 32 degenerate draws the
    original order is returned under the name ``"noop"`` (keeps the
    proposal stream total so a seed replays exactly).
    """
    for _ in range(32):
        idx = int(rng.integers(0, len(MOVES)))
        name, fn = MOVES[idx]
        out = fn(order, rng, ctx)
        if out is not None:
            return name, out
    return "noop", _as_order(order, ctx.n_products).copy()
