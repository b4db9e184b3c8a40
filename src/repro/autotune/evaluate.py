"""Candidate evaluation: the autotuner's objective as a runner job.

One candidate evaluation = build (or memmap) ``G_r``, expand the genome
into a demand-driven schedule, simulate it under the chosen eviction
policy, and report the measured I/O together with the **Belady gap** —
measured total I/O minus the Theorem-1 Ω-form lower bound.  The gap is
the search objective: a schedule that drives it down tightens the upper
half of the paper's sandwich.

:func:`evaluate_candidate` is a module-level runner entrypoint
(``repro.autotune.evaluate:evaluate_candidate``), so every candidate is
a content-addressed sweep job: identical candidates — re-proposed after
a crash, re-visited by a neighbourhood, or submitted by another search
— hash to the same job key and are answered from the result store
without simulating.  Compiled plans come from the graph-bundle cache
when one is active (workers inherit ``REPRO_GRAPH_CACHE``).

Two dispatch backends share one interface (``evaluate(orders)`` →
records, in proposal order):

- :class:`LocalEvaluator` — in-process, one shared
  :class:`~repro.pebbling.executor.CacheExecutor` whose content-keyed
  plan cache (plus a genome-key memo) makes repeated-neighbourhood
  evaluations cheap; used by the E15 experiment and ``repro tune
  --local``;
- :class:`PoolEvaluator` — a worker pool per generation through
  :func:`repro.runner.run_sweep` with the on-disk result store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autotune.genome import GENOME_VERSION, genome_key
from repro.errors import ReproError

__all__ = [
    "EVALUATE_VERSION",
    "TUNE_EXPERIMENT_ID",
    "EvalRecord",
    "evaluate_candidate",
    "candidate_spec",
    "LocalEvaluator",
    "PoolEvaluator",
]

#: Version of the evaluation semantics; part of every job's params so a
#: change in what "io" means re-keys cached evaluations.
EVALUATE_VERSION = "1"

#: Experiment id evaluation jobs are filed under in the result store
#: (``<cache-dir>/TUNE/<job_key>.json``).
TUNE_EXPERIMENT_ID = "TUNE"


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of evaluating one candidate order."""

    key: str          # genome key (not the job key)
    io: int
    gap: float
    lower: float
    cached: bool      # served from a store/memo instead of simulating
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def evaluate_candidate(
    alg: str = "strassen",
    r: int = 2,
    cache_size: int = 16,
    policy: str = "belady",
    order=None,
    genome: str = GENOME_VERSION,
    evaluate: str = EVALUATE_VERSION,
) -> dict:
    """Runner-job entrypoint: measure one candidate product order.

    Returns a JSON-native dict (the sweep pool wraps it as the job
    payload's ``data``): measured I/O split, the Theorem-1 Ω-form lower
    bound at ``(n, M)``, and the Belady gap ``io - lower``.
    """
    from repro.bilinear import by_name
    from repro.bounds import io_lower_bound
    from repro.cdag import build_cdag
    from repro.pebbling import CacheExecutor
    from repro.schedules.base import demand_driven_schedule

    if genome != GENOME_VERSION or evaluate != EVALUATE_VERSION:
        raise ReproError(
            f"evaluation format mismatch: genome={genome!r} "
            f"evaluate={evaluate!r}"
        )
    if order is None:
        raise ReproError("evaluate_candidate needs an 'order' parameter")
    algorithm = by_name(alg)
    g = build_cdag(algorithm, int(r))
    arr = np.ascontiguousarray(order, dtype=np.int64)
    sched = demand_driven_schedule(g, arr)
    res = CacheExecutor(g).run(
        sched, int(cache_size), policy, validate=False
    )
    n = algorithm.n0 ** int(r)
    lower = io_lower_bound(algorithm, n, int(cache_size))
    return {
        "io": int(res.total),
        "reads": int(res.reads),
        "writes": int(res.writes),
        "spill_reads": int(res.spill_reads),
        "spill_writes": int(res.spill_writes),
        "peak_cache": int(res.peak_cache),
        "lower": float(lower),
        "gap": float(res.total - lower),
        "genome_key": genome_key(arr),
    }


def candidate_spec(alg: str, r: int, cache_size: int, policy: str, order):
    """The :class:`~repro.runner.JobSpec` for one candidate (the genome
    rides in the params, so the job key is the content address of the
    whole evaluation)."""
    from repro.runner import JobSpec

    return JobSpec(
        TUNE_EXPERIMENT_ID,
        {
            "alg": alg,
            "r": int(r),
            "cache_size": int(cache_size),
            "policy": policy,
            "order": np.ascontiguousarray(order, dtype=np.int64).tolist(),
            "genome": GENOME_VERSION,
            "evaluate": EVALUATE_VERSION,
        },
        entrypoint="repro.autotune.evaluate:evaluate_candidate",
    )


def _record_from_data(key: str, data: dict, cached: bool) -> EvalRecord:
    return EvalRecord(
        key=key,
        io=int(data["io"]),
        gap=float(data["gap"]),
        lower=float(data["lower"]),
        cached=cached,
    )


class LocalEvaluator:
    """In-process evaluation against one shared executor.

    The executor's content-keyed plan cache already dedupes compiled
    plans; the genome-key memo on top skips schedule expansion and
    simulation entirely for exact repeats (the hill-climb re-visits its
    incumbent's neighbourhood constantly).
    """

    def __init__(self, cdag, cache_size: int, policy: str = "belady"):
        from repro.bounds import io_lower_bound
        from repro.pebbling import CacheExecutor

        self.cdag = cdag
        self.cache_size = int(cache_size)
        self.policy = policy
        self.executor = CacheExecutor(cdag)
        n = cdag.alg.n0**cdag.r
        self.lower = float(io_lower_bound(cdag.alg, n, self.cache_size))
        self._memo: dict[str, EvalRecord] = {}

    def evaluate(self, orders) -> list[EvalRecord]:
        from repro.schedules.base import demand_driven_schedule

        out = []
        for order in orders:
            key = genome_key(order)
            hit = self._memo.get(key)
            if hit is not None:
                out.append(EvalRecord(key, hit.io, hit.gap, hit.lower, True))
                continue
            sched = demand_driven_schedule(self.cdag, order)
            res = self.executor.run(
                sched, self.cache_size, self.policy, validate=False
            )
            rec = EvalRecord(
                key=key,
                io=int(res.total),
                gap=float(res.total - self.lower),
                lower=self.lower,
                cached=False,
            )
            self._memo[key] = rec
            out.append(rec)
        return out


class PoolEvaluator:
    """Dispatch each generation as a sweep over a local worker pool.

    Candidates dedupe through the content-addressed result store: a
    re-proposed candidate (same genome, same grid point, same code
    version) is a cache hit, which is what makes rerunning a killed
    search cheap.
    """

    def __init__(
        self,
        alg: str,
        r: int,
        cache_size: int,
        policy: str = "belady",
        *,
        store=None,
        workers: int = 2,
        graph_cache=None,
        events=None,
        fresh: bool = False,
    ):
        self.alg = alg
        self.r = int(r)
        self.cache_size = int(cache_size)
        self.policy = policy
        self.store = store
        self.workers = int(workers)
        self.graph_cache = graph_cache
        self.events = events
        self.fresh = fresh

    def evaluate(self, orders) -> list[EvalRecord]:
        from repro.runner import run_sweep

        orders = list(orders)
        if not orders:
            return []
        specs = [
            candidate_spec(
                self.alg, self.r, self.cache_size, self.policy, order
            )
            for order in orders
        ]
        outcomes = run_sweep(
            specs,
            self.store,
            workers=min(self.workers, len(specs)),
            progress=False,
            events=self.events,
            graph_cache=self.graph_cache,
            fresh=self.fresh,
        )
        out = []
        for order, outcome in zip(orders, outcomes):
            key = genome_key(order)
            if not outcome.ok:
                out.append(EvalRecord(key, 0, 0.0, 0.0, False,
                                      error=outcome.error or "failed"))
                continue
            data = outcome.payload["data"]
            out.append(_record_from_data(key, data, outcome.cached))
        return out
