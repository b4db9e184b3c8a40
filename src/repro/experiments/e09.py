"""E9 — Theorem 1, sequential: measured I/O vs the bound sandwich.

Sweep ``r`` and ``M`` for Strassen's algorithm; measure pebble-game I/O
of the recursive schedule (Belady and LRU) and of the naive schedules;
compare against the lower bounds and the recurrence upper bound.

What the paper proves is checked as stated: every measurement must be
at least the Section 6 bound with the paper's explicit constants
(:func:`~repro.bounds.io_lower_bound_paper_constants`).  That bound is
0 at every default point — it first becomes non-zero at n = 128 — so
the check is sound but vacuous here.  The rest are shape checks: (a) no
measurement falls below the Ω-form with constant 1 (a constant the paper
does not prove) in the scaling regime; (b) the recursive schedule's
log-log slope in ``n`` approaches ``ω0 = log2 7``; (c) naive schedules
are asymptotically worse.

The sweep is batched through :meth:`CacheExecutor.run_many` (one
schedule validation and use-list precompute per schedule, shared across
every ``(M, policy)`` cell).  On top of the ``r <= r_max`` grid, a
single larger instance ``r = r_big`` (n = 64 by default) is measured at
``big_cache_sizes`` for the recursive schedule only — the rank-order
schedule is skipped there (its I/O grows like the cubic term and
dominates the runtime without adding a check) — which extends the slope
series by one more doubling.  Pass ``r_big=None`` to skip it (the quick
test configurations do).

Each schedule's LRU and Belady configurations are each counted by one
pass over the plan (:mod:`repro.simcore.stack`).
"""

from __future__ import annotations

import math

from repro.bilinear import strassen
from repro.bounds import (
    io_lower_bound,
    io_lower_bound_paper_constants,
    recursive_io_recurrence,
)
from repro.cdag import build_cdag
from repro.experiments.harness import ExperimentResult, register
from repro.pebbling import CacheExecutor
from repro.schedules import rank_order_schedule, recursive_schedule
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E9")
def run(
    r_max: int = 5,
    cache_sizes=(12, 24, 48, 96),
    r_big: int | None = 6,
    big_cache_sizes=(12, 96),
) -> ExperimentResult:
    alg = strassen()
    table = TextTable(
        ["n", "M", "paper bound (Sec. 6)", "lower Ω-form",
         "recursive (belady)", "recursive (lru)", "rank-order (lru)",
         "upper recurrence"],
        title="E9: sequential I/O — measurements vs Theorem 1 bounds",
    )
    checks: dict[str, bool] = {}
    measurements: dict[tuple[int, int], dict[str, float]] = {}

    def measure(r: int, Ms, with_rank: bool) -> None:
        g = build_cdag(alg, r)
        executor = CacheExecutor(g)
        rec = executor.run_many(recursive_schedule(g), Ms, ("belady", "lru"))
        rank = (
            executor.run_many(rank_order_schedule(g), Ms, ("lru",))
            if with_rank
            else {}
        )
        n = alg.n0**r
        for M in Ms:
            paper = io_lower_bound_paper_constants(alg, n, M, clamp=True)
            lower = io_lower_bound(alg, n, M)
            upper = recursive_io_recurrence(alg, n, M)
            rank_lru = rank[(M, "lru")].total if with_rank else None
            table.add_row(
                [n, M, paper, round(lower), rec[(M, "belady")].total,
                 rec[(M, "lru")].total,
                 rank_lru if rank_lru is not None else "—", upper]
            )
            cell = {
                "paper": paper,
                "lower": lower,
                "rec_belady": rec[(M, "belady")].total,
                "rec_lru": rec[(M, "lru")].total,
                "upper": upper,
            }
            if rank_lru is not None:
                cell["rank_lru"] = rank_lru
            measurements[(n, M)] = cell

    for r in range(2, r_max + 1):
        measure(r, cache_sizes, with_rank=True)
    if r_big is not None and r_big > r_max:
        big_Ms = [M for M in big_cache_sizes if M >= cache_sizes[0]]
        measure(r_big, big_Ms, with_rank=False)

    # The theorem as proved: every measurement is at least the Section 6
    # explicit-constant bound (0 until n = 128, so vacuous by default).
    checks["every measurement >= the paper's explicit-constant bound"] = all(
        m[key] >= m["paper"]
        for m in measurements.values()
        for key in ("rec_belady", "rec_lru", "rank_lru")
        if key in m
    )

    # (a) shape: measured >= Ω-form with constant 1 (not a proven
    # constant) wherever the bound is in its regime (M = o(n^2): use
    # M <= n^2 / 4).
    shape = all(
        m["rec_belady"] >= m["lower"]
        and m.get("rank_lru", math.inf) >= m["lower"]
        for (n, M), m in measurements.items()
        if M <= n * n / 4
    )
    checks["shape: no measurement beats the Ω-form with constant 1"] = shape

    # (b) slope of recursive-schedule I/O in n at fixed M.
    M0 = cache_sizes[0]
    ns = sorted(n for (n, M) in measurements if M == M0)
    slopes = [
        math.log(
            measurements[(n2, M0)]["rec_belady"]
            / measurements[(n1, M0)]["rec_belady"],
            2,
        )
        / math.log(n2 / n1, 2)
        for n1, n2 in zip(ns, ns[1:])
    ]
    slope_table = TextTable(
        ["n1 -> n2", "measured slope", "omega0 = log2 7"],
        title="E9: log-log slope of recursive-schedule I/O in n (M fixed)",
    )
    for (n1, n2), s in zip(zip(ns, ns[1:]), slopes):
        slope_table.add_row([f"{n1}->{n2}", round(s, 3), round(alg.omega0, 3)])
    # Finite-size effects shrink with r; at the default sweep depth the
    # last doubling's slope is within 0.35 of omega0 (looser for the
    # truncated sweeps used in quick test runs).
    deepest = max(r_max, r_big or 0)
    tolerance = 0.35 if deepest >= 4 else 0.6  # finite-size window
    checks["recursive slope approaches omega0"] = (
        abs(slopes[-1] - alg.omega0) < tolerance
    )

    # (c) the naive schedule does not enjoy the M-scaling: its I/O
    # decreases much more slowly with M than the recursive schedule's.
    # (rank-order is only run up to r_max, so compare there.)
    n_big = alg.n0**r_max
    rec_gain = (
        measurements[(n_big, cache_sizes[0])]["rec_belady"]
        / measurements[(n_big, cache_sizes[-1])]["rec_belady"]
    )
    rank_gain = (
        measurements[(n_big, cache_sizes[0])]["rank_lru"]
        / measurements[(n_big, cache_sizes[-1])]["rank_lru"]
    )
    checks["blocking pays: recursive gains more from M than rank-order"] = (
        rec_gain > rank_gain
    )
    checks["recursive beats rank-order at the largest size"] = (
        measurements[(n_big, cache_sizes[0])]["rec_belady"]
        < measurements[(n_big, cache_sizes[0])]["rank_lru"]
    )
    # The recurrence models the leaf working set as 3 m^2; the real
    # executor also keeps encoded intermediates live near the cache
    # boundary, so agreement is up to a constant factor, not pointwise.
    checks["measured recursive within 4x of recurrence model"] = all(
        m["rec_belady"] <= 4 * m["upper"] for m in measurements.values()
    )

    return ExperimentResult(
        experiment_id="E9",
        title="Theorem 1 sequential: I/O sweep",
        tables=[table, slope_table],
        checks=checks,
        data={"measurements": {f"{k}": v for k, v in measurements.items()}},
    )
