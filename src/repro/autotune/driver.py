"""The autotune driver: budgeted, journaled search over schedules.

The driver owns everything a strategy should not have to know about:
the evaluation budget, the **ledger** (genome key → measured I/O, so a
re-proposed candidate costs no simulation), the checksummed journal,
telemetry, and best-so-far tracking.  Per generation it asks the
strategy for proposals, answers what it can from the ledger, sends the
rest to the evaluator (a worker pool or in-process),
folds the results back into the strategy, and checkpoints.

Budget semantics match the original hill-climb: **every proposal
charges the budget**, whether it was simulated or answered from the
ledger/result store — so fixed-seed trajectories are independent of
cache warmth, and a resumed search replays the interrupted generation
(identical RNG draws) to land on the exact uninterrupted trajectory.

Telemetry: one ``autotune.generation`` span per generation (Chrome
trace shows the search cadence), plus always-on registry counters
``autotune.evaluations`` / ``autotune.cache_hits`` / ``autotune.failures``
and the ``autotune.best_gap`` gauge (the gap trajectory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autotune.evaluate import EvalRecord
from repro.autotune.genome import GenomeContext, genome_key
from repro.autotune.journal import TuneJournal
from repro.autotune.strategies import TuneContext, make_strategy
from repro.errors import ReproError
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import span
from repro.utils.rngs import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["TuneConfig", "TuneResult", "AutoTuner"]


@dataclass(frozen=True)
class TuneConfig:
    """Search configuration (canonicalised into the journal, so a
    resume refuses to continue under different settings)."""

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

    def describe(self) -> dict:
        return {
            "alg": self.alg,
            "r": int(self.r),
            "cache_size": int(self.cache_size),
            "policy": self.policy,
            "strategy": self.strategy,
            "budget": int(self.budget),
            "generation": int(self.generation),
            "seed": self.seed,
        }


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
    resumed: bool = False

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
            "resumed": self.resumed,
        }


class AutoTuner:
    """Drive one search: strategy proposals → evaluator → checkpoint.

    Parameters
    ----------
    config:
        The search settings; journaled and enforced on resume.
    evaluator:
        Any of the :mod:`repro.autotune.evaluate` backends (anything
        with ``evaluate(orders) -> list[EvalRecord]``).
    journal:
        A :class:`~repro.autotune.journal.TuneJournal` (or a path); None
        disables checkpointing (in-memory search).
    start_order:
        Initial product permutation; default is the recursive order.
    strategy_options:
        Extra constructor kwargs for the strategy (the ``external``
        escape hatch takes ``solver_cmd``/``cache_dir``/``timeout``).
    resume:
        Continue from the journal's last completed generation; the
        journal's config must match ``config``.
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
        journal: TuneJournal | str | None = None,
        start_order=None,
        strategy_options: dict | None = None,
        resume: bool = False,
        algorithm=None,
    ):
        self.config = config
        self.evaluator = evaluator
        if journal is not None and not isinstance(journal, TuneJournal):
            journal = TuneJournal(journal)
        self.journal = journal
        self.resume = resume
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
        self.strategy = make_strategy(
            config.strategy, **(strategy_options or {})
        )

    # ------------------------------------------------------------------

    def _restore(self, rng):
        """Restore (state, counters, ledger, …) from the journal; returns
        None when there is nothing valid to resume from."""
        if self.journal is None:
            return None
        records = TuneJournal.load(self.journal.path)
        if not records or records[0].get("kind") != "tune_start":
            return None
        if records[0]["config"] != self.config.describe():
            raise ReproError(
                "journal config mismatch: refusing to resume "
                f"{self.journal.path} under different settings"
            )
        generations = [r for r in records if r.get("kind") == "generation"]
        if not generations:
            return None
        last = generations[-1]
        ledger = {}
        for rec in generations:
            for key, io, gap in rec["ledger_new"]:
                ledger[key] = {"io": int(io), "gap": float(gap)}
        rng.bit_generator.state = last["rng_state"]
        return {
            "state": last["state"],
            "ledger": ledger,
            "gen": int(last["gen"]) + 1,
            "evaluations": int(last["evaluations"]),
            "cache_hits": int(last["cache_hits"]),
            "failures": int(last["failures"]),
            "start_io": int(last["start_io"]),
            "best_key": last["best_key"],
            "best_io": int(last["best_io"]),
            "best_gap": float(last["best_gap"]),
            "best_order": np.asarray(last["best_order"], dtype=np.int64),
            "trajectory": [
                {
                    "gen": int(r["gen"]),
                    "evaluations": int(r["evaluations"]),
                    "best_io": int(r["best_io"]),
                    "best_gap": float(r["best_gap"]),
                }
                for r in generations
            ],
        }

    # ------------------------------------------------------------------

    def run(self) -> TuneResult:
        """Search until the budget is spent; the journal's file is
        closed on the way out, however the search ends."""
        try:
            return self._search()
        finally:
            if self.journal is not None:
                self.journal.close()

    def _search(self) -> TuneResult:
        config = self.config
        ctx = self.ctx
        strategy = self.strategy
        rng = make_rng(config.seed)
        reg = metrics()

        state = strategy.initial_state(ctx)
        ledger: dict[str, dict] = {}
        trajectory: list[dict] = []
        gen = evaluations = cache_hits = failures = 0
        best_key = None
        best_io = best_gap = None
        best_order = None
        start_io = None
        lower = None
        resumed = False

        if self.resume:
            snapshot = self._restore(rng)
            if snapshot is not None:
                state = snapshot["state"]
                ledger = snapshot["ledger"]
                gen = snapshot["gen"]
                evaluations = snapshot["evaluations"]
                cache_hits = snapshot["cache_hits"]
                failures = snapshot["failures"]
                start_io = snapshot["start_io"]
                best_key = snapshot["best_key"]
                best_io = snapshot["best_io"]
                best_gap = snapshot["best_gap"]
                best_order = snapshot["best_order"]
                trajectory = snapshot["trajectory"]
                resumed = True
                self.journal.append({"kind": "tune_resume", "gen": gen})
                # Re-verify the incumbent through the evaluator: for a
                # store-backed evaluator this is a guaranteed cache hit
                # (its generation completed before the kill), proving
                # the dedupe path end to end.  Not charged to the
                # budget, so trajectories stay bit-for-bit identical.
                verify = self.evaluator.evaluate([best_order])
                cache_hits += sum(1 for rec in verify if rec.cached)
                reg.inc(
                    "autotune.cache_hits",
                    sum(1 for rec in verify if rec.cached),
                )
                if verify and verify[0].ok:
                    lower = verify[0].lower
        if not resumed and self.journal is not None:
            # A resume that found a start record but no completed
            # generation restarts from scratch without duplicating the
            # start record (same seed → identical generation 0).  A
            # non-resumed search starts the journal over: appending a
            # second run to an old journal would poison later resumes.
            existing = []
            if self.resume:
                existing = TuneJournal.load(self.journal.path)
            else:
                self.journal.truncate()
            if not existing:
                self.journal.append({
                    "kind": "tune_start",
                    "config": config.describe(),
                    "n_products": ctx.genome.n_products,
                })

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
                ledger_new = []
                batch_hits = batch_failures = 0
                for key, rec in zip(fresh_keys, fresh):
                    if rec.ok:
                        ledger[key] = {"io": rec.io, "gap": rec.gap}
                        ledger_new.append([key, rec.io, rec.gap])
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
                for order, key, rec in zip(proposals, keys, records):
                    if not rec.ok:
                        continue
                    if best_io is None or rec.io < best_io:
                        best_io, best_gap = rec.io, rec.gap
                        best_key, best_order = key, order
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
                if best_gap is not None:
                    reg.gauge("autotune.best_gap").set(best_gap)
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
            if self.journal is not None:
                self.journal.append({
                    "kind": "generation",
                    "gen": gen,
                    "evaluations": evaluations,
                    "cache_hits": cache_hits,
                    "failures": failures,
                    "start_io": int(start_io),
                    "best_key": best_key,
                    "best_io": int(best_io),
                    "best_gap": float(best_gap),
                    "best_order": best_order.tolist(),
                    "state": state,
                    "rng_state": rng.bit_generator.state,
                    "ledger_new": ledger_new,
                })
            gen += 1

        if best_io is None:
            raise ReproError("search made no successful evaluations")
        result = TuneResult(
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
            resumed=resumed,
        )
        if self.journal is not None:
            self.journal.append({
                "kind": "tune_finish", **result.summary()
            })
        return result
