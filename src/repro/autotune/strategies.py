"""Search strategies over the schedule genome.

A strategy is the *proposal* half of the tuner: the driver owns the
budget, the ledger and the evaluator; the strategy owns a ``state``
dict and decides what to try next.

Contract (all methods deterministic given ``(state, rng)``):

- ``initial_state(ctx)``          → fresh state dict;
- ``seed_orders(ctx, state, rng)``→ generation-0 candidates;
- ``propose(ctx, state, rng)``    → next candidates (``[]`` = converged);
- ``observe(ctx, state, proposals, records, rng)`` → fold evaluated
  results into ``state`` (in place).

Built-ins: ``hillclimb`` (the pre-autotuner hill-climb loop,
draw-for-draw), ``anneal`` (simulated annealing over the mixed move
set), ``genetic`` (small elitist population) and ``portfolio`` (one-shot
sweep of the blocked/recursive hybrid family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.autotune.genome import (
    GenomeContext,
    genome_key,
    hybrid_order,
    move_block_swap,
    random_move,
)
from repro.errors import ReproError

__all__ = [
    "TuneContext",
    "Strategy",
    "HillClimbStrategy",
    "AnnealStrategy",
    "GeneticStrategy",
    "PortfolioStrategy",
    "STRATEGIES",
    "make_strategy",
]


@dataclass(frozen=True)
class TuneContext:
    """Static search context shared by driver and strategy."""

    genome: GenomeContext
    start_order: np.ndarray
    budget: int
    generation: int


def _orders(state_orders) -> list[np.ndarray]:
    return [np.asarray(o, dtype=np.int64) for o in state_orders]


class Strategy:
    """Base class; subclasses override the four hooks."""

    name = "base"

    def initial_state(self, ctx: TuneContext) -> dict:
        return {}

    def seed_orders(self, ctx: TuneContext, state: dict, rng) -> list:
        return [ctx.start_order]

    def propose(self, ctx: TuneContext, state: dict, rng) -> list:
        raise NotImplementedError

    def observe(self, ctx, state, proposals, records, rng) -> None:
        raise NotImplementedError


class HillClimbStrategy(Strategy):
    """First-improvement hill-climb over block swaps.

    Reproduces the pre-autotuner hill-climb loop exactly (a frozen copy
    is the parity oracle in ``tests/autotune/test_driver.py``): one
    candidate per generation, the same two RNG draws per attempt,
    overlapping block draws retried under the same ``20 * budget``
    attempts cap, greedy acceptance.  Fixed-seed trajectories are
    unchanged.
    """

    name = "hillclimb"

    def initial_state(self, ctx):
        return {"best_order": None, "best_io": None, "attempts": 0}

    def propose(self, ctx, state, rng):
        best = np.asarray(state["best_order"], dtype=np.int64)
        while state["attempts"] < 20 * ctx.budget:
            state["attempts"] += 1
            candidate = move_block_swap(best, rng, ctx.genome)
            if candidate is None:
                continue  # overlapping draw; retry (bounded by attempts)
            return [candidate]
        return []

    def observe(self, ctx, state, proposals, records, rng):
        for order, rec in zip(proposals, records):
            if not rec.ok:
                continue
            if state["best_io"] is None or rec.io < state["best_io"]:
                state["best_io"] = rec.io
                state["best_order"] = np.asarray(
                    order, dtype=np.int64
                ).tolist()


class AnnealStrategy(Strategy):
    """Simulated annealing over the full move set.

    Proposes ``ctx.generation`` neighbours of the current incumbent per
    generation; acceptance (Metropolis, geometric cooling from 5% of
    the start I/O down to ~0.1%) is applied sequentially in
    ``observe``, so the rng stream stays deterministic given the seed.
    """

    name = "anneal"

    def initial_state(self, ctx):
        return {
            "current_order": None,
            "current_io": None,
            "t0": None,
            "evals": 0,
        }

    def propose(self, ctx, state, rng):
        current = np.asarray(state["current_order"], dtype=np.int64)
        out = []
        for _ in range(max(1, ctx.generation)):
            _, cand = random_move(current, rng, ctx.genome)
            out.append(cand)
        return out

    def observe(self, ctx, state, proposals, records, rng):
        for order, rec in zip(proposals, records):
            if not rec.ok:
                continue
            if state["current_io"] is None:
                state["current_io"] = rec.io
                state["current_order"] = np.asarray(
                    order, dtype=np.int64
                ).tolist()
                state["t0"] = max(1.0, 0.05 * rec.io)
                continue
            state["evals"] += 1
            frac = min(1.0, state["evals"] / max(1, ctx.budget))
            temp = state["t0"] * (0.02**frac)
            delta = rec.io - state["current_io"]
            if delta <= 0 or float(rng.random()) < math.exp(-delta / temp):
                state["current_io"] = rec.io
                state["current_order"] = np.asarray(
                    order, dtype=np.int64
                ).tolist()


class GeneticStrategy(Strategy):
    """Small elitist population with tournament parents and mixed
    mutation moves; seeded with the blocked/recursive hybrid family so
    the hybridisation axis is explored from generation 0."""

    name = "genetic"

    def initial_state(self, ctx):
        return {"population": []}  # [[order, io], ...] sorted by io

    def seed_orders(self, ctx, state, rng):
        seeds = [ctx.start_order]
        for d in range(1, ctx.genome.r):  # d = r degenerates to d = 0
            if len(seeds) >= max(2, ctx.generation):
                break
            seeds.append(hybrid_order(ctx.genome, d))
        return seeds

    def propose(self, ctx, state, rng):
        population = state["population"]
        if not population:
            return []
        out = []
        for _ in range(max(1, ctx.generation)):
            i = int(rng.integers(0, len(population)))
            j = int(rng.integers(0, len(population)))
            parent = population[min(i, j)]  # sorted: lower index = fitter
            _, cand = random_move(
                np.asarray(parent[0], dtype=np.int64), rng, ctx.genome
            )
            out.append(cand)
        return out

    def observe(self, ctx, state, proposals, records, rng):
        population = state["population"]
        seen = {genome_key(np.asarray(o, dtype=np.int64))
                for o, _ in population}
        for order, rec in zip(proposals, records):
            if not rec.ok or rec.key in seen:
                continue
            seen.add(rec.key)
            population.append(
                [np.asarray(order, dtype=np.int64).tolist(), rec.io]
            )
        population.sort(key=lambda e: (e[1], e[0]))
        del population[max(4, ctx.generation):]


class PortfolioStrategy(Strategy):
    """One-shot portfolio: the recursive order, every blocked/recursive
    hybrid depth, and two seeded random permutations.  No local moves —
    a cheap baseline sweep (and the fixed-family comparison point)."""

    name = "portfolio"

    def initial_state(self, ctx):
        return {"done": False}

    def seed_orders(self, ctx, state, rng):
        seeds = [ctx.start_order]
        seeds.extend(
            hybrid_order(ctx.genome, d) for d in range(1, ctx.genome.r)
        )
        for _ in range(2):
            seeds.append(
                rng.permutation(ctx.genome.n_products).astype(np.int64)
            )
        return seeds

    def propose(self, ctx, state, rng):
        return []

    def observe(self, ctx, state, proposals, records, rng):
        state["done"] = True


STRATEGIES = {
    "hillclimb": HillClimbStrategy,
    "anneal": AnnealStrategy,
    "genetic": GeneticStrategy,
    "portfolio": PortfolioStrategy,
}


def make_strategy(name: str) -> Strategy:
    """Instantiate a registered strategy."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from None
    return cls()
