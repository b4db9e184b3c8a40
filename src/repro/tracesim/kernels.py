"""Address-trace generators for matrix-multiplication loop nests.

Address space layout: ``A`` at offset 0, ``B`` at ``n²``, ``C`` at
``2n²``; all row-major.  Traces are generated lazily (one tuple per
memory reference) so memory use stays flat regardless of ``n``.

Three kernels:

- :func:`trace_ijk` — the naive triple loop (poor reuse: for large n,
  I/O ~ n³);
- :func:`trace_blocked` — square-blocked classical (Hong-Kung-optimal
  at ``block ~ sqrt(M/3)``: I/O ~ n³/block);
- :func:`trace_strassen_recursive` — the Strassen-like recursion's
  access pattern: operand reads for encodings, product read/writes,
  decode writes, with scratch blocks allocated per recursion level (the
  real-memory analogue of the recursive schedule).
"""

from __future__ import annotations

from typing import Iterator

from repro.bilinear.algorithm import BilinearAlgorithm
from repro.utils.validation import check_positive_int, check_power

__all__ = ["trace_ijk", "trace_blocked", "trace_strassen_recursive"]

Trace = Iterator[tuple[int, bool]]


def trace_ijk(n: int) -> Trace:
    """Naive ``for i, for j, for k: C[i,k] += A[i,j] * B[j,k]``.

    Per inner iteration: read A[i,j], read B[j,k], read+write C[i,k].
    """
    n = check_positive_int(n, "n")
    base_b = n * n
    base_c = 2 * n * n
    for i in range(n):
        row_a = i * n
        row_c = base_c + i * n
        for j in range(n):
            a_addr = row_a + j
            row_b = base_b + j * n
            for k in range(n):
                yield a_addr, False
                yield row_b + k, False
                yield row_c + k, False
                yield row_c + k, True


def trace_blocked(n: int, block: int) -> Trace:
    """Square-blocked classical multiplication, block-row-major inner
    loops.  Same references as :func:`trace_ijk`, reordered."""
    n = check_positive_int(n, "n")
    block = check_positive_int(block, "block")
    base_b = n * n
    base_c = 2 * n * n
    for i0 in range(0, n, block):
        for k0 in range(0, n, block):
            for j0 in range(0, n, block):
                for i in range(i0, min(i0 + block, n)):
                    row_a = i * n
                    row_c = base_c + i * n
                    for j in range(j0, min(j0 + block, n)):
                        a_addr = row_a + j
                        row_b = base_b + j * n
                        for k in range(k0, min(k0 + block, n)):
                            yield a_addr, False
                            yield row_b + k, False
                            yield row_c + k, False
                            yield row_c + k, True


def trace_strassen_recursive(
    alg: BilinearAlgorithm, n: int, cutoff: int = 1
) -> Trace:
    """Memory references of the recursive bilinear algorithm.

    Scratch buffers for the encoded operands and products are allocated
    per recursion level past ``3n²`` (a bump allocator mirrors how a real
    implementation reuses per-level workspace).  At or below ``cutoff``
    the kernel switches to the ijk loop on the current buffers.
    """
    n = check_positive_int(n, "n")
    check_power(n, alg.n0, "n")
    base_a, base_b, base_c = 0, n * n, 2 * n * n
    scratch_top = 3 * n * n

    def ijk_leaf(a, b, c) -> Trace:
        a_base, a_stride, size = a
        b_base, b_stride, _ = b
        c_base, c_stride, _ = c
        for i in range(size):
            for j in range(size):
                a_addr = a_base + i * a_stride + j
                for k in range(size):
                    yield a_addr, False
                    yield b_base + j * b_stride + k, False
                    yield c_base + i * c_stride + k, False
                    yield c_base + i * c_stride + k, True

    def rec(a, b, c, scratch: int) -> Trace:
        size = a[2]
        if size <= cutoff:
            yield from ijk_leaf(a, b, c)
            return
        n0 = alg.n0
        blk = size // n0
        # Scratch layout per level: 2 operand buffers + 1 product buffer.
        buf_l = scratch
        buf_r = scratch + blk * blk
        buf_p = scratch + 2 * blk * blk
        next_scratch = scratch + 3 * blk * blk

        def block_view(parent, r, cidx):
            base, stride, _ = parent
            return (base + (r * blk) * stride + cidx * blk, stride, blk)

        a_blocks = [block_view(a, r, cc) for r in range(n0) for cc in range(n0)]
        b_blocks = [block_view(b, r, cc) for r in range(n0) for cc in range(n0)]
        c_blocks = [block_view(c, r, cc) for r in range(n0) for cc in range(n0)]

        def emit_combine(coeffs, blocks, dest) -> Trace:
            """Read participating source blocks, write the destination."""
            dest_base, dest_stride, _ = dest
            sources = [blk_ for coeff, blk_ in zip(coeffs, blocks) if coeff]
            for i in range(blk):
                for j in range(blk):
                    for s_base, s_stride, _ in sources:
                        yield s_base + i * s_stride + j, False
                    yield dest_base + i * dest_stride + j, True

        for m in range(alg.b):
            left = (buf_l, blk, blk)
            right = (buf_r, blk, blk)
            prod = (buf_p, blk, blk)
            yield from emit_combine(alg.U[m], a_blocks, left)
            yield from emit_combine(alg.V[m], b_blocks, right)
            yield from rec(left, right, prod, next_scratch)
            # Accumulate the product into every output block using it.
            for e in range(alg.a):
                if alg.W[e, m]:
                    dest_base, dest_stride, _ = c_blocks[e]
                    for i in range(blk):
                        for j in range(blk):
                            yield buf_p + i * blk + j, False
                            yield dest_base + i * dest_stride + j, False
                            yield dest_base + i * dest_stride + j, True

    yield from rec(
        (base_a, n, n), (base_b, n, n), (base_c, n, n), scratch_top
    )
