"""Tests for the schedule search: the autotuner's annealer, one
candidate per generation."""

import numpy as np
import pytest

from repro.autotune import AutoTuner, TuneConfig
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.schedules import validate_schedule, demand_driven_schedule


@pytest.fixture(scope="module")
def g2():
    return build_cdag(strassen(), 2)


def anneal(cdag, budget, seed, start_order=None, cache_size=16):
    config = TuneConfig(
        cache_size=cache_size, budget=budget, generation=1, seed=seed,
    )
    return AutoTuner(config, cdag, start_order=start_order).run()


class TestSearchSchedule:
    def test_never_worse_than_start(self, g2):
        res = anneal(g2, budget=15, seed=1)
        assert res.best_io <= res.start_io

    def test_improves_random_start(self, g2):
        rng = np.random.default_rng(3)
        res = anneal(g2, start_order=rng.permutation(49), budget=40, seed=4)
        assert res.best_io <= res.start_io
        # Random starts are bad enough that the search finds something.
        assert res.improvement >= 0.0

    def test_recursive_is_local_optimum_ish(self, g2):
        """The recursive order resists a small search budget — the
        near-optimality evidence the E9 sandwich relies on."""
        res = anneal(g2, budget=30, seed=7)
        assert res.improvement < 0.05

    def test_best_order_is_valid(self, g2):
        rng = np.random.default_rng(9)
        res = anneal(g2, start_order=rng.permutation(49), budget=10, seed=2)
        sched = demand_driven_schedule(g2, res.best_order)
        validate_schedule(g2, sched)

    def test_budget_respected(self, g2):
        res = anneal(g2, budget=5, seed=1)
        assert res.evaluations <= 5

    def test_bad_budget(self, g2):
        with pytest.raises(ValueError):
            anneal(g2, budget=0, seed=None)

    def test_improvement_property(self, g2):
        res = anneal(g2, budget=3, seed=1)
        assert 0.0 <= res.improvement < 1.0
