"""The benchmark's workloads.

Each workload takes ``(ctx, seed, smoke)`` and records one output per
op in ``ctx`` (see :class:`layers.Context`).  An op is one simulated
``(schedule, M, policy)`` config, one Hong-Kung partition or dominator
cut, or one routing certificate; ``run.py`` checks every output against
``expected.json``.  ``smoke`` selects the small sizes the self-test uses.

Only ``io_sweep`` uses the seed (for its random product order).
"""

from __future__ import annotations

from repro.bilinear import classical, strassen, winograd
from repro.bounds import (
    io_lower_bound_paper_constants,
    minimum_dominator_size,
    partition_by_io,
)
from repro.bounds.dominators import minimum_set
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor
from repro.routing.theorem2 import theorem2_certificate
from repro.schedules import (
    loop_order_schedule,
    random_product_order_schedule,
    rank_order_schedule,
    recursive_schedule,
)

# Sizes keep one repeat near a second on a 2-vCPU Xeon, so a 20-second
# run takes ten or more repeats and its median rides out the host's
# bursts of slowness: hence n <= 32, M = 32 and k = 3 below.

#: E9's cache sizes.
CACHE_SIZES = (12, 24, 48, 96)
#: Four times E14's M = 8: 64 dominator cuts instead of 374.
HK_M = 32


def _simulate(ctx, executor, prefix, schedule, cache_sizes, policies, seeded=False):
    """One op per ``(M, policy)``: ``[reads, writes, paper bound]``.

    The op fails if the measured I/O is below the Section 6
    explicit-constant bound, which the paper proves for every schedule.
    """
    g = executor.cdag
    n = g.alg.n0**g.r
    keys = [f"{prefix}/M{M}/{p}" for M in cache_sizes for p in policies]

    def run():
        ctx.call("simcore.plan", executor.compile, schedule)
        res = ctx.call("simcore.run_many", executor.run_many, schedule, cache_sizes, policies)
        out = {}
        for M in cache_sizes:
            bound = io_lower_bound_paper_constants(g.alg, n, M, clamp=True)
            for p in policies:
                io = res[(M, p)]
                if io.total < bound:
                    raise AssertionError(
                        f"{prefix} M={M} {p}: I/O {io.total} below the proven bound {bound}"
                    )
                out[f"{prefix}/M{M}/{p}"] = [io.reads, io.writes, bound]
        return out

    ctx.ops(keys, run, seeded=seeded)


def io_sweep(ctx, seed: int, smoke: bool) -> None:
    """E9's sweep: recursive (belady + lru) and rank-order (lru) at every
    cache size for r = 2..4, then a seeded random product order at r = 4."""
    alg = strassen()
    r_max = 3 if smoke else 4
    for r in range(2, r_max + 1):
        g = ctx.call("cdag.build", build_cdag, alg, r)
        executor = CacheExecutor(g)
        rec = ctx.call("schedules.recursive", recursive_schedule, g)
        _simulate(ctx, executor, f"r{r}/recursive", rec, CACHE_SIZES, ("belady", "lru"))
        rank = ctx.call("schedules.rank_order", rank_order_schedule, g)
        _simulate(ctx, executor, f"r{r}/rank_order", rank, CACHE_SIZES, ("lru",))
    rnd = ctx.call(
        "schedules.random_product_order", random_product_order_schedule, g, seed
    )
    _simulate(ctx, executor, f"r{r_max}/random_product", rnd, (12, 48), ("lru",), seeded=True)


def io_n32(ctx, seed: int, smoke: bool) -> None:
    """One large execution: build, schedule, compile, simulate once."""
    r = 3 if smoke else 5
    g = ctx.call("cdag.build", build_cdag, strassen(), r)
    executor = CacheExecutor(g)
    rec = ctx.call("schedules.recursive", recursive_schedule, g)
    _simulate(ctx, executor, f"r{r}/recursive", rec, (12,), ("lru",))


def hk_dominators(ctx, seed: int, smoke: bool) -> None:
    """Cut an execution every 2M I/Os (Hong-Kung's induced partition) and
    measure every part's minimum dominator and minimum set."""
    cases = [("strassen", strassen(), 2, "recursive")] if smoke else [
        ("strassen", strassen(), 3, "recursive"),
        ("classical", classical(2), 3, "ijk"),
    ]
    for name, alg, r, order in cases:
        g = ctx.call("cdag.build", build_cdag, alg, r)
        if order == "recursive":
            sched = ctx.call("schedules.recursive", recursive_schedule, g)
        else:
            sched = ctx.call("schedules.loop_order", loop_order_schedule, g, order)
        prefix = f"{name}_G{r}/{order}/M{HK_M}"
        parts = []

        def partition():
            parts.extend(ctx.call("pebbling.partition", partition_by_io, g, sched, HK_M))
            ctx.counts["pebbling.parts"] += len(parts)
            return len(parts)

        ctx.op(f"{prefix}/partition", partition)
        for i, part in enumerate(parts):
            ctx.op(f"{prefix}/part{i:03d}", lambda: _cut(ctx, g, part))


def _cut(ctx, g, part) -> list[int]:
    """One dominator cut: ``[minimum dominator size, minimum set size]``."""
    dom = ctx.call("bounds.dominator", minimum_dominator_size, g, part)
    mset = ctx.call("bounds.minimum_set", minimum_set, g, part)
    return [int(dom), len(mset)]


def routing_cert(ctx, seed: int, smoke: bool) -> None:
    """Build and fully verify Theorem 2's 6 a^k routing."""
    k = 2 if smoke else 3
    for name, alg in (("strassen", strassen()), ("winograd", winograd())):

        def certificate():
            cert = ctx.call("routing.certificate", theorem2_certificate, alg, k)
            report = cert.report
            ctx.counts["routing.paths"] += report.n_paths
            return [report.n_paths, int(report.max_vertex_hits),
                    int(report.max_meta_hits), int(cert.lemma3_max_hits)]

        ctx.op(f"{name}/k{k}", certificate)


WORKLOADS = {
    "io_sweep": io_sweep,
    "io_n32": io_n32,
    "hk_dominators": hk_dominators,
    "routing_cert": routing_cert,
}
