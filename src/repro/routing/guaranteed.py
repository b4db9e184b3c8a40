"""Guaranteed dependencies (paper, Section 7).

An input-output pair ``(v, w)`` is a *guaranteed dependence* when every
correct matrix-multiplication algorithm must contain a chain from ``v``
to ``w``: for ``v = a_ij`` and ``w = c_i'j'`` exactly when ``i = i'``,
and for ``v = b_ij`` exactly when ``j = j'``.

In tuple coordinates this decomposes digit-wise: the global row of an
``A``-input matches the global row of an output iff the per-level row
digits all match — which is what makes Claim 2's recursive lifting work.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.cdag.graph import CDAG, Region

__all__ = [
    "input_row_col",
    "output_row_col",
    "guaranteed_dependencies",
    "is_guaranteed_dependence",
    "count_guaranteed_dependencies",
]


def _digits_row_col(digits: Sequence, n0: int) -> tuple:
    """Global (row, col) of entry tuples, most significant digit first.

    ``digits`` holds one entry digit per level: ints for one vertex, or
    equal-length int arrays (one per level) for many vertices at once.
    """
    row = col = 0
    for e in digits:
        row = row * n0 + e // n0
        col = col * n0 + e % n0
    return row, col


def _row_col_digits(row: np.ndarray, col: np.ndarray, n0: int, r: int) -> list[np.ndarray]:
    """Inverse of :func:`_digits_row_col`: the ``r`` per-level entry
    digits of global ``(row, col)`` arrays, most significant first."""
    weights = [n0 ** (r - 1 - i) for i in range(r)]
    return [(row // w % n0) * n0 + col // w % n0 for w in weights]


def _entry_row_col(
    cdag: CDAG, ids: np.ndarray, region: int, local_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global (row, col) arrays of vertices of one entry slab (a side's
    inputs, or the outputs)."""
    slab = cdag.slab(region, local_rank)
    digits = slab.radix.unpack_array(ids - slab.offset)
    if not digits:  # G_0: each matrix is its single entry (0, 0)
        return np.zeros_like(ids), np.zeros_like(ids)
    return _digits_row_col(digits, cdag.alg.n0)


def _check_rank(cdag: CDAG, ids: np.ndarray, rank: int, what: str) -> None:
    """Raise ValueError at the first id that is not a vertex of global
    rank ``rank`` (0 for inputs, ``2r + 1`` for outputs)."""
    ok = (ids >= 0) & (ids < cdag.n_vertices)
    ok[ok] = cdag.rank[ids[ok]] == rank
    if not ok.all():
        raise ValueError(f"vertex {int(ids[np.argmin(ok)])} is not an {what}")


def _input_coords(cdag: CDAG, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorised :func:`input_row_col`: ``(side, row, col)`` arrays with
    side 0 for A and 1 for B."""
    _check_rank(cdag, v, 0, "input")
    side = (cdag.region[v] == Region.ENC_B).astype(np.int64)
    b_shift = cdag.slab(Region.ENC_B, 0).offset - cdag.slab(Region.ENC_A, 0).offset
    row, col = _entry_row_col(cdag, v - side * b_shift, Region.ENC_A, 0)
    return side, row, col


def _output_coords(cdag: CDAG, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`output_row_col`."""
    _check_rank(cdag, w, 2 * cdag.r + 1, "output")
    return _entry_row_col(cdag, w, Region.DEC, cdag.r)


def _dependency_arrays(cdag: CDAG, side: str) -> tuple[np.ndarray, ...]:
    """One side's guaranteed dependencies as aligned arrays ``(inputs,
    outputs, row, col, out_row, out_col)``, in
    :func:`guaranteed_dependencies` order: row, then col, then the free
    index (output col for A, output row for B)."""
    n = cdag.alg.n0**cdag.r
    row, col, free = (x.ravel() for x in np.indices((n, n, n), dtype=np.int64))
    out_row, out_col = (row, free) if side == "A" else (free, col)
    inputs = cdag.inputs(side)
    outputs = cdag.outputs()
    region = Region.ENC_A if side == "A" else Region.ENC_B
    input_at = np.empty((n, n), dtype=np.int64)
    input_at[_entry_row_col(cdag, inputs, region, 0)] = inputs
    output_at = np.empty((n, n), dtype=np.int64)
    output_at[_entry_row_col(cdag, outputs, Region.DEC, cdag.r)] = outputs
    return input_at[row, col], output_at[out_row, out_col], row, col, out_row, out_col


def input_row_col(cdag: CDAG, v: int) -> tuple[str, int, int]:
    """``(side, row, col)`` of an input vertex."""
    region, local_rank, digits = cdag.vertex_digits(v)
    if local_rank != 0 or region == Region.DEC:
        raise ValueError(f"vertex {v} is not an input")
    side = "A" if region == Region.ENC_A else "B"
    row, col = _digits_row_col(digits, cdag.alg.n0)
    return side, row, col


def output_row_col(cdag: CDAG, w: int) -> tuple[int, int]:
    """``(row, col)`` of an output vertex."""
    region, local_rank, digits = cdag.vertex_digits(w)
    if region != Region.DEC or local_rank != cdag.r:
        raise ValueError(f"vertex {w} is not an output")
    return _digits_row_col(digits, cdag.alg.n0)


def is_guaranteed_dependence(cdag: CDAG, v: int, w: int) -> bool:
    """Whether ``(v, w)`` is a guaranteed input-output dependence."""
    side, row, col = input_row_col(cdag, v)
    out_row, out_col = output_row_col(cdag, w)
    return row == out_row if side == "A" else col == out_col


def guaranteed_dependencies(
    cdag: CDAG, side: str | None = None
) -> Iterator[tuple[int, int]]:
    """Yield all guaranteed dependencies ``(input, output)``.

    ``side`` restricts to ``"A"`` or ``"B"``.  There are ``n0^(3r)``
    pairs per side: one per (row, col, output-col) for A, per
    (row, col, output-row) for B.
    """
    sides = ("A", "B") if side is None else (side,)
    for s in sides:
        inputs, outputs, *_ = _dependency_arrays(cdag, s)
        yield from zip(inputs.tolist(), outputs.tolist())


def count_guaranteed_dependencies(cdag: CDAG, side: str | None = None) -> int:
    """``n0^(3r)`` per side."""
    per_side = cdag.alg.n0 ** (3 * cdag.r)
    return per_side * (2 if side is None else 1)
