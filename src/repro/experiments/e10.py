"""E10 — Strassen vs classical: who wins, where (crossovers).

Three comparisons reproduce the "fast beats classical" picture the
paper's introduction assumes:

1. **Flops**: operation counts of the recursive vs classical algorithms
   (measured by the counting kernels) and the crossover size.
2. **I/O bounds**: Theorem 1's ``(n/√M)^ω0 M`` vs Hong-Kung's
   ``n³/√M`` — ratio grows like ``n^(3-ω0) / M^((3-ω0)/2)``.
3. **Trace-simulated I/O**: blocked classical vs recursive Strassen
   traces through the same LRU cache — the measured counterpart.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bilinear import strassen
from repro.bounds import (
    classical_io_lower_bound,
    flop_crossover_n,
    flops,
    io_lower_bound,
    io_ratio,
)
from repro.experiments.harness import ExperimentResult, register
from repro.linalg import OpCounter, strassen_matmul
from repro.tracesim import FullyAssociativeLRU, trace_blocked, trace_strassen_recursive
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E10")
def run(trace_n: int = 64, trace_m: int = 1536) -> ExperimentResult:
    alg = strassen()
    checks: dict[str, bool] = {}

    flop_table = TextTable(
        ["n", "strassen flops", "classical flops (2n^3 - n^2)", "ratio"],
        title="E10: arithmetic counts",
    )
    for r in range(2, 8):
        n = 2**r
        fast = flops(alg, n)
        classical_ops = 2 * n**3 - n * n
        flop_table.add_row(
            [n, int(fast), classical_ops, round(fast / classical_ops, 3)]
        )
    n_star = flop_crossover_n(alg)
    checks["flop crossover is finite"] = math.isfinite(n_star)
    checks["past crossover, fast wins flops"] = flops(
        alg, 2 ** math.ceil(math.log2(n_star) + 1)
    ) < 2 * (2 ** math.ceil(math.log2(n_star) + 1)) ** 3

    # Measured flops agree with the model.
    counter = OpCounter()
    strassen_matmul(np.eye(16), np.eye(16), counter=counter)
    checks["measured flops match model"] = counter.total == flops(alg, 16)

    bound_table = TextTable(
        ["n", "M", "classical n^3/sqrt(M)", "strassen-like bound",
         "classical / fast"],
        title="E10: I/O bound comparison (who wins)",
    )
    for n_exp in (8, 12, 16, 20):
        n = 2**n_exp
        M = 2**14
        bound_table.add_row(
            [n, M, f"{classical_io_lower_bound(n, M):.3e}",
             f"{io_lower_bound(alg, n, M):.3e}",
             round(io_ratio(alg, n, M), 2)]
        )
    checks["I/O advantage grows with n"] = io_ratio(alg, 2**20, 2**14) > io_ratio(
        alg, 2**8, 2**14
    )
    checks["fast loses below sqrt(M) scale, wins above"] = (
        io_ratio(alg, 2**20, 2**14) > 1.0
    )

    trace_table = TextTable(
        ["kernel", "n", "M", "accesses", "I/O (misses+writebacks)"],
        title="E10: trace-simulated I/O (LRU, line=1)",
    )
    block = max(2, int(math.sqrt(trace_m / 3)))
    io_classical = FullyAssociativeLRU(trace_m).run(
        trace_blocked(trace_n, block)
    )
    io_fast = FullyAssociativeLRU(trace_m).run(
        trace_strassen_recursive(alg, trace_n, cutoff=8)
    )
    trace_table.add_row(
        ["blocked classical", trace_n, trace_m, io_classical.accesses,
         io_classical.io]
    )
    trace_table.add_row(
        ["recursive strassen", trace_n, trace_m, io_fast.accesses,
         io_fast.io]
    )
    checks["trace I/O within 10x of Hong-Kung shape (classical)"] = (
        io_classical.io
        <= 10 * classical_io_lower_bound(trace_n, trace_m)
        + 4 * trace_n**2
    )

    return ExperimentResult(
        experiment_id="E10",
        title="Strassen vs classical crossovers",
        tables=[flop_table, bound_table, trace_table],
        checks=checks,
        data={"flop_crossover": n_star},
    )
