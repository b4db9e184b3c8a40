"""The autotune driver: simulated annealing over product orders.

Per generation the annealer draws ``generation`` neighbours of its
incumbent (:func:`~repro.autotune.genome.random_move`), measures each
new one in-process, and accepts them in proposal order (Metropolis,
geometric cooling from 5% of the start I/O down to ~0.1%).  The
**ledger** (genome key → measured I/O) answers repeated candidates
without simulating.  **Every proposal charges the budget**, ledger
answers included, so a fixed seed replays one trajectory.

Telemetry: one ``autotune.generation`` span per generation, plus
registry counters ``autotune.evaluations`` / ``autotune.cache_hits``.
The gap trajectory is :attr:`TuneResult.trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.autotune.genome import GenomeContext, genome_key, random_move
from repro.errors import ReproError
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import span
from repro.utils.rngs import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["TuneConfig", "TuneResult", "AutoTuner"]


@dataclass(frozen=True)
class TuneConfig:
    """Search configuration."""

    cache_size: int = 24
    budget: int = 64
    generation: int = 8
    seed: int | None = None

    def __post_init__(self):
        check_positive_int(self.cache_size, "cache_size")
        check_positive_int(self.budget, "budget")
        check_positive_int(self.generation, "generation")


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
            "generations": int(self.generations),
            "improved": self.improved,
            "improvement": round(self.improvement, 6),
        }


class AutoTuner:
    """Anneal the product order of ``cdag``'s demand-driven schedule.

    The objective is measured I/O under Belady (offline-MIN) eviction on
    one :class:`~repro.pebbling.CacheExecutor`; the reported gap subtracts
    the Theorem-1 Ω-form bound.  ``start_order`` defaults to the
    recursive order (the identity).
    """

    def __init__(self, config: TuneConfig, cdag, *, start_order=None):
        from repro.bounds import io_lower_bound
        from repro.pebbling import CacheExecutor

        alg = cdag.alg
        self.config = config
        self.cdag = cdag
        self.genome = GenomeContext(
            n_products=alg.b**cdag.r, b=alg.b, r=cdag.r
        )
        order = (
            np.arange(self.genome.n_products, dtype=np.int64)
            if start_order is None
            else np.ascontiguousarray(start_order, dtype=np.int64)
        )
        if len(order) != self.genome.n_products:
            raise ReproError(
                f"start order has {len(order)} entries; expected "
                f"{self.genome.n_products}"
            )
        self.start_order = order
        self.executor = CacheExecutor(cdag)
        self.lower = float(
            io_lower_bound(alg, alg.n0**cdag.r, config.cache_size)
        )

    def _measure(self, order) -> int:
        from repro.schedules.base import demand_driven_schedule

        sched = demand_driven_schedule(self.cdag, order)
        return int(self.executor.run(
            sched, self.config.cache_size, "belady", validate=False,
        ).total)

    def run(self) -> TuneResult:
        """Search until the budget is spent."""
        config = self.config
        rng = make_rng(config.seed)
        reg = metrics()
        ledger: dict[str, int] = {}
        trajectory: list[dict] = []
        gen = evaluations = cache_hits = moves = 0
        current = best_order = self.start_order
        start_io = current_io = best_io = t0 = None

        while evaluations < config.budget:
            if gen == 0:
                proposals = [self.start_order]
            else:
                proposals = [
                    random_move(current, rng, self.genome)[1]
                    for _ in range(config.generation)
                ]
            proposals = proposals[: config.budget - evaluations]
            with span("autotune.generation", gen=gen) as sp:
                hits = 0
                for order in proposals:
                    key = genome_key(order)
                    io = ledger.get(key)
                    if io is None:
                        io = ledger[key] = self._measure(order)
                    else:
                        hits += 1
                    if current_io is None:  # the start order
                        start_io = current_io = io
                        t0 = max(1.0, 0.05 * io)
                    else:
                        moves += 1
                        temp = t0 * (0.02 ** min(1.0, moves / config.budget))
                        delta = io - current_io
                        if delta <= 0 or rng.random() < math.exp(-delta / temp):
                            current, current_io = order, io
                    if best_io is None or io < best_io:
                        best_order, best_io = order, io
                evaluations += len(proposals)
                cache_hits += hits
                sp.add("evaluations", len(proposals))
                sp.add("cache_hits", hits)
                sp.set("best_io", best_io)
                reg.inc("autotune.evaluations", len(proposals))
                reg.inc("autotune.cache_hits", hits)
            trajectory.append({
                "gen": gen,
                "evaluations": evaluations,
                "best_io": best_io,
                "best_gap": best_io - self.lower,
            })
            gen += 1

        return TuneResult(
            best_order=best_order,
            best_io=best_io,
            best_gap=best_io - self.lower,
            lower=self.lower,
            start_io=start_io,
            evaluations=evaluations,
            cache_hits=cache_hits,
            generations=gen,
            trajectory=trajectory,
        )
