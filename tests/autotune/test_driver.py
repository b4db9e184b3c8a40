"""The autotune driver: trajectories, budget, ledger, telemetry."""

import numpy as np
import pytest

from repro import telemetry
from repro.autotune import AutoTuner, TuneConfig
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.errors import ReproError


@pytest.fixture(scope="module")
def g2():
    return build_cdag(strassen(), 2)


class TestPinnedTrajectories:
    """Fixed-seed anneal runs on Strassen's G_2 under Belady.  The
    pinned values guard the move set, its RNG draws, the acceptance rule
    and the budget rule: a change to any of them moves a trajectory."""

    @pytest.mark.parametrize(
        "cache_size,budget,seed,generation,start,best,hits,per_gen",
        [
            (12, 30, 7, 8, 220, 207, 16, [220, 220, 216, 216, 207]),
            (8, 50, 0, 1, 288, 282, 25, [288] * 24 + [287] * 23 + [282] * 3),
            (24, 40, 123, 3, 121, 119, 16, [121] * 9 + [119] * 5),
        ],
        ids=["12-30-7", "8-50-0", "24-40-123"],
    )
    def test_pinned_trajectory(
        self, g2, cache_size, budget, seed, generation, start, best, hits,
        per_gen,
    ):
        config = TuneConfig(
            cache_size=cache_size, budget=budget, generation=generation,
            seed=seed,
        )
        res = AutoTuner(config, g2).run()
        assert res.start_io == start
        assert res.best_io == best
        assert res.cache_hits == hits
        assert res.generations == len(per_gen)
        assert [t["best_io"] for t in res.trajectory] == per_gen
        assert res.evaluations == budget


class TestDriver:
    def _tune(self, g2, **overrides):
        defaults = dict(
            cache_size=12, budget=20, generation=4, seed=3,
        )
        defaults.update(overrides)
        return AutoTuner(TuneConfig(**defaults), g2).run()

    def test_respects_budget_and_never_regresses(self, g2):
        res = self._tune(g2)
        assert res.evaluations <= 20
        assert res.best_io <= res.start_io
        assert res.generations == len(res.trajectory)
        best_ios = [t["best_io"] for t in res.trajectory]
        assert best_ios == sorted(best_ios, reverse=True)
        assert res.trajectory[-1]["best_io"] == res.best_io

    def test_same_seed_same_trajectory(self, g2):
        a = self._tune(g2)
        b = self._tune(g2)
        assert a.trajectory == b.trajectory
        assert np.array_equal(a.best_order, b.best_order)

    def test_gap_is_io_minus_lower(self, g2):
        res = self._tune(g2)
        assert res.best_gap == pytest.approx(res.best_io - res.lower)

    def test_emits_generation_spans_and_counters(self, g2):
        telemetry.enable()
        telemetry.reset()
        res = self._tune(g2)
        spans = [s for s in telemetry.collected_spans()
                 if s["name"] == "autotune.generation"]
        assert len(spans) == res.generations
        assert sum(s["counters"]["evaluations"] for s in spans) == (
            res.evaluations
        )
        reg = telemetry.metrics()
        assert reg.counter("autotune.evaluations").value == res.evaluations
        assert reg.counter("autotune.cache_hits").value == res.cache_hits
        telemetry.disable()

    def test_bad_start_order_length(self, g2):
        config = TuneConfig(budget=4)
        with pytest.raises(ReproError, match="expected 49"):
            AutoTuner(config, g2, start_order=np.arange(10))
