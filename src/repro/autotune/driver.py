"""The autotune driver: budgeted search over schedules.

The driver owns everything a strategy should not have to know about:
the evaluation budget, the **ledger** (genome key → measured I/O, so a
re-proposed candidate costs no simulation), telemetry, and best-so-far
tracking.  Per generation it asks the strategy for proposals, answers
what it can from the ledger, sends the rest to the evaluator (a worker
pool or in-process), and folds the results back into the strategy.

Budget semantics match the original hill-climb: **every proposal
charges the budget**, whether it was simulated or answered from the
ledger/result store — so fixed-seed trajectories are independent of
cache warmth.  That is also how a killed search resumes: rerun it
against the same result store, and it replays the uninterrupted
trajectory, answering every candidate the killed run stored from the
store.

Telemetry: one ``autotune.generation`` span per generation (Chrome
trace shows the search cadence), plus always-on registry counters
``autotune.evaluations`` / ``autotune.cache_hits`` / ``autotune.failures``.
The gap trajectory is :attr:`TuneResult.trajectory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autotune.evaluate import EvalRecord
from repro.autotune.genome import GenomeContext, genome_key
from repro.autotune.strategies import TuneContext, make_strategy
from repro.errors import ReproError
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import span
from repro.utils.rngs import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["TuneConfig", "TuneResult", "AutoTuner"]


@dataclass(frozen=True)
class TuneConfig:
    """Search configuration."""

    alg: str = "strassen"
    r: int = 3
    cache_size: int = 24
    policy: str = "belady"
    strategy: str = "hillclimb"
    budget: int = 64
    generation: int = 8
    seed: int | None = None

    def __post_init__(self):
        check_positive_int(self.budget, "budget")
        check_positive_int(self.generation, "generation")
        check_positive_int(self.r, "r")


@dataclass
class TuneResult:
    """Terminal state of one search."""

    best_order: np.ndarray
    best_io: int
    best_gap: float
    lower: float
    start_io: int
    evaluations: int
    cache_hits: int
    failures: int
    generations: int
    trajectory: list = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.best_io < self.start_io

    @property
    def improvement(self) -> float:
        """Relative I/O reduction over the start order (0 when none)."""
        return 1.0 - self.best_io / self.start_io if self.start_io else 0.0

    def summary(self) -> dict:
        return {
            "best_io": int(self.best_io),
            "best_gap": round(float(self.best_gap), 3),
            "lower": round(float(self.lower), 3),
            "start_io": int(self.start_io),
            "evaluations": int(self.evaluations),
            "cache_hits": int(self.cache_hits),
            "failures": int(self.failures),
            "generations": int(self.generations),
            "improved": self.improved,
            "improvement": round(self.improvement, 6),
        }


class AutoTuner:
    """Drive one search: strategy proposals → evaluator → strategy.

    Parameters
    ----------
    config:
        The search settings.
    evaluator:
        Any of the :mod:`repro.autotune.evaluate` backends (anything
        with ``evaluate(orders) -> list[EvalRecord]``).
    start_order:
        Initial product permutation; default is the recursive order.
    algorithm:
        Explicit :class:`~repro.bilinear.BilinearAlgorithm`; default is
        the catalog lookup of ``config.alg`` (pass it for algorithms
        that are not catalog-addressable by name).
    """

    def __init__(
        self,
        config: TuneConfig,
        evaluator,
        *,
        start_order=None,
        algorithm=None,
    ):
        self.config = config
        self.evaluator = evaluator
        if algorithm is None:
            from repro.bilinear import by_name

            algorithm = by_name(config.alg)
        gctx = GenomeContext(
            n_products=algorithm.b**config.r, b=algorithm.b, r=config.r
        )
        order = (
            np.arange(gctx.n_products, dtype=np.int64)
            if start_order is None
            else np.ascontiguousarray(start_order, dtype=np.int64)
        )
        if len(order) != gctx.n_products:
            raise ReproError(
                f"start order has {len(order)} entries; expected "
                f"{gctx.n_products}"
            )
        self.ctx = TuneContext(
            genome=gctx,
            start_order=order,
            budget=config.budget,
            generation=config.generation,
        )
        self.strategy = make_strategy(config.strategy)

    def run(self) -> TuneResult:
        """Search until the budget is spent."""
        config = self.config
        ctx = self.ctx
        strategy = self.strategy
        rng = make_rng(config.seed)
        reg = metrics()

        state = strategy.initial_state(ctx)
        ledger: dict[str, dict] = {}
        trajectory: list[dict] = []
        gen = evaluations = cache_hits = failures = 0
        best_io = best_gap = None
        best_order = None
        start_io = None
        lower = None

        while evaluations < config.budget:
            if gen == 0:
                proposals = strategy.seed_orders(ctx, state, rng)
            else:
                proposals = strategy.propose(ctx, state, rng)
            proposals = [
                np.ascontiguousarray(o, dtype=np.int64) for o in proposals
            ]
            if not proposals:
                break
            proposals = proposals[: config.budget - evaluations]
            with span(
                "autotune.generation", gen=gen, strategy=strategy.name
            ) as sp:
                keys = [genome_key(o) for o in proposals]
                fresh_orders, fresh_keys, seen = [], [], set()
                for key, order in zip(keys, proposals):
                    if key not in ledger and key not in seen:
                        seen.add(key)
                        fresh_keys.append(key)
                        fresh_orders.append(order)
                fresh = self.evaluator.evaluate(fresh_orders)
                batch_hits = batch_failures = 0
                for key, rec in zip(fresh_keys, fresh):
                    if rec.ok:
                        ledger[key] = {"io": rec.io, "gap": rec.gap}
                        if lower is None:
                            lower = rec.lower
                        if rec.cached:
                            batch_hits += 1
                    else:
                        batch_failures += 1
                # Records aligned with proposals: ledger answers count
                # as hits (no simulation happened for them).
                fresh_by_key = dict(zip(fresh_keys, fresh))
                records = []
                for key in keys:
                    rec = fresh_by_key.pop(key, None)
                    if rec is None:
                        if key in ledger:
                            entry = ledger[key]
                            rec = EvalRecord(
                                key, entry["io"], entry["gap"],
                                lower or 0.0, True,
                            )
                            batch_hits += 1
                        else:  # duplicate of a failed fresh evaluation
                            rec = EvalRecord(key, 0, 0.0, 0.0, False,
                                             error="evaluation failed")
                    records.append(rec)
                strategy.observe(ctx, state, proposals, records, rng)
                for order, rec in zip(proposals, records):
                    if not rec.ok:
                        continue
                    if best_io is None or rec.io < best_io:
                        best_io, best_gap = rec.io, rec.gap
                        best_order = order
                if gen == 0 and records and records[0].ok:
                    start_io = records[0].io
                if start_io is None and best_io is not None:
                    start_io = best_io  # first proposal failed; degrade
                evaluations += len(proposals)
                cache_hits += batch_hits
                failures += batch_failures
                sp.add("evaluations", len(proposals))
                sp.add("cache_hits", batch_hits)
                sp.add("failures", batch_failures)
                if best_io is not None:
                    sp.set("best_io", best_io)
                reg.inc("autotune.evaluations", len(proposals))
                reg.inc("autotune.cache_hits", batch_hits)
                reg.inc("autotune.failures", batch_failures)
            if best_io is None:
                raise ReproError(
                    "no successful candidate evaluations in the first "
                    "generation; cannot search"
                )
            trajectory.append({
                "gen": gen,
                "evaluations": evaluations,
                "best_io": int(best_io),
                "best_gap": float(best_gap),
            })
            gen += 1

        if best_io is None:
            raise ReproError("search made no successful evaluations")
        return TuneResult(
            best_order=best_order,
            best_io=int(best_io),
            best_gap=float(best_gap),
            lower=float(lower if lower is not None else 0.0),
            start_io=int(start_io),
            evaluations=evaluations,
            cache_hits=cache_hits,
            failures=failures,
            generations=gen,
            trajectory=trajectory,
        )
