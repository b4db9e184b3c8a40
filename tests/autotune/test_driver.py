"""The autotune driver: trajectories, budget, caching, strategies."""

import gc
import json
import sys
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.autotune import (
    AutoTuner,
    LocalEvaluator,
    PoolEvaluator,
    TuneConfig,
    TuneJournal,
)
from repro.autotune.strategies import make_strategy
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.errors import ReproError
from repro.pebbling import CacheExecutor
from repro.runner import ResultStore
from repro.schedules import demand_driven_schedule
from repro.utils.rngs import make_rng


@pytest.fixture(scope="module")
def g2():
    return build_cdag(strassen(), 2)


def _legacy_hillclimb(cdag, cache_size, budget, seed, policy="belady"):
    """The pre-autotuner ``schedules/search.py`` loop, verbatim — the
    fixed-seed trajectory contract the hillclimb strategy preserves."""
    rng = make_rng(seed)
    executor = CacheExecutor(cdag)
    n_products = len(cdag.products())
    order = np.arange(n_products)

    def io_of(candidate):
        sched = demand_driven_schedule(cdag, candidate)
        return executor.run(sched, cache_size, policy, validate=False).total

    best, best_io = order, io_of(order)
    start_io = best_io
    evaluations, attempts = 1, 0
    while evaluations < budget and attempts < 20 * budget:
        attempts += 1
        length = int(rng.integers(1, max(2, n_products // 8)))
        i, j = sorted(rng.integers(0, n_products - length, size=2).tolist())
        if i + length > j:
            continue
        candidate = best.copy()
        candidate[i : i + length], candidate[j : j + length] = (
            best[j : j + length].copy(),
            best[i : i + length].copy(),
        )
        candidate_io = io_of(candidate)
        evaluations += 1
        if candidate_io < best_io:
            best, best_io = candidate, candidate_io
    return best, best_io, start_io, evaluations


class TestHillclimbParity:
    @pytest.mark.parametrize("cache_size,budget,seed",
                             [(12, 30, 7), (8, 50, 0), (24, 40, 123)])
    def test_hillclimb_matches_legacy_loop(self, g2, cache_size, budget, seed):
        want_order, want_io, want_start, want_evals = _legacy_hillclimb(
            g2, cache_size, budget, seed
        )
        config = TuneConfig(
            alg="strassen", r=2, cache_size=cache_size, strategy="hillclimb",
            budget=budget, generation=1, seed=seed,
        )
        res = AutoTuner(
            config, LocalEvaluator(g2, cache_size, config.policy)
        ).run()
        assert res.best_io == want_io
        assert res.start_io == want_start
        assert res.evaluations == want_evals
        assert np.array_equal(res.best_order, want_order)


class TestDriver:
    def _tune(self, g2, **overrides):
        defaults = dict(
            alg="strassen", r=2, cache_size=12, policy="belady",
            strategy="anneal", budget=20, generation=4, seed=3,
        )
        defaults.update(overrides)
        config = TuneConfig(**defaults)
        return AutoTuner(
            config, LocalEvaluator(g2, config.cache_size, config.policy)
        ).run()

    @pytest.mark.parametrize(
        "strategy", ["hillclimb", "anneal", "genetic", "portfolio"]
    )
    def test_strategies_respect_budget_and_never_regress(self, g2, strategy):
        res = self._tune(g2, strategy=strategy)
        assert res.evaluations <= 20
        assert res.best_io <= res.start_io
        assert res.generations == len(res.trajectory)
        best_ios = [t["best_io"] for t in res.trajectory]
        assert best_ios == sorted(best_ios, reverse=True)
        assert res.trajectory[-1]["best_io"] == res.best_io

    def test_same_seed_same_trajectory(self, g2):
        a = self._tune(g2, strategy="genetic")
        b = self._tune(g2, strategy="genetic")
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
        assert reg.gauge("autotune.best_gap").last == pytest.approx(
            res.best_gap
        )
        telemetry.disable()

    def test_candidates_reuse_compiled_plans(self, g2):
        """Satellite: re-evaluating a candidate must not recompile — the
        exact-repeat memo answers first, and below it the executor's
        content-keyed plan cache serves same-schedule re-runs."""
        evaluator = LocalEvaluator(g2, 12)
        order = np.arange(49, dtype=np.int64)
        first, repeat = evaluator.evaluate([order, order.copy()])
        assert not first.cached and repeat.cached
        assert repeat.io == first.io
        # The plan compiled for the first evaluation is reused when the
        # same schedule reaches the executor again (e.g. under another
        # cache size).
        telemetry.reset()
        sched = demand_driven_schedule(g2, order)
        evaluator.executor.run(sched, 8, "belady", validate=False)
        reg = telemetry.metrics()
        assert reg.counter("pebbling.plan.hit").value == 1
        assert reg.counter("pebbling.plan.miss").value == 0

    def test_unknown_strategy(self):
        with pytest.raises(ReproError, match="unknown strategy"):
            make_strategy("gradient-descent")

    def test_bad_start_order_length(self, g2):
        config = TuneConfig(r=2, budget=4)
        with pytest.raises(ReproError, match="expected 49"):
            AutoTuner(
                config, LocalEvaluator(g2, 12), start_order=np.arange(10)
            )

    def test_resume_config_mismatch(self, g2, tmp_path):
        journal = tmp_path / "t.jsonl"
        config = TuneConfig(r=2, budget=8, generation=4, seed=1)
        AutoTuner(
            config, LocalEvaluator(g2, 24), journal=str(journal)
        ).run()
        other = TuneConfig(r=2, budget=9, generation=4, seed=1)
        with pytest.raises(ReproError, match="config mismatch"):
            AutoTuner(
                other, LocalEvaluator(g2, 24),
                journal=str(journal), resume=True,
            ).run()

    def test_fresh_run_truncates_old_journal(self, g2, tmp_path):
        journal = tmp_path / "t.jsonl"
        config = TuneConfig(r=2, budget=8, generation=4, seed=1)
        for _ in range(2):  # second run must not append to the first
            AutoTuner(
                config, LocalEvaluator(g2, 24), journal=str(journal)
            ).run()
        records = TuneJournal.load(journal)
        kinds = [r["kind"] for r in records]
        assert kinds.count("tune_start") == 1
        assert kinds[0] == "tune_start" and kinds[-1] == "tune_finish"


class TestJournalIsClosed:
    """A journal opened from a path is closed when the search ends,
    whether it finishes or raises: no file is left to the garbage
    collector (which reports it as a ``ResourceWarning``)."""

    @staticmethod
    def _unclosed_files(search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            search()
            gc.collect()
        return [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_finished_search(self, g2, tmp_path):
        config = TuneConfig(r=2, budget=8, generation=4, seed=1)

        def search():
            AutoTuner(
                config, LocalEvaluator(g2, 24),
                journal=str(tmp_path / "t.jsonl"),
            ).run()

        assert self._unclosed_files(search) == []

    def test_search_that_raises(self, g2, tmp_path):
        config = TuneConfig(r=2, budget=8, generation=4, seed=1)
        local = LocalEvaluator(g2, 24)

        class FailsAfterOneGeneration:
            calls = 0

            def evaluate(self, orders):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("evaluator lost")
                return local.evaluate(orders)

        def search():
            with pytest.raises(RuntimeError, match="evaluator lost"):
                AutoTuner(
                    config, FailsAfterOneGeneration(),
                    journal=str(tmp_path / "t.jsonl"),
                ).run()

        assert self._unclosed_files(search) == []
        kinds = [r["kind"] for r in TuneJournal.load(tmp_path / "t.jsonl")]
        assert kinds == ["tune_start", "generation"]


class TestPoolEvaluator:
    def test_store_dedupes_across_searches(self, tmp_path):
        """Identical searches answer every evaluation from the result
        store the second time; trajectories are identical either way."""
        store = ResultStore(tmp_path)
        config = TuneConfig(
            r=2, cache_size=12, strategy="genetic", budget=10,
            generation=3, seed=5,
        )

        def run():
            evaluator = PoolEvaluator(
                "strassen", 2, 12, store=store, workers=2
            )
            try:
                return AutoTuner(config, evaluator).run()
            finally:
                evaluator.close()

        cold, warm = run(), run()
        assert warm.trajectory == cold.trajectory
        assert np.array_equal(warm.best_order, cold.best_order)
        # Every unique candidate the warm search simulated is a hit.
        assert warm.cache_hits >= cold.cache_hits
        assert warm.cache_hits == warm.evaluations - warm.failures

    def test_failed_candidates_are_counted_not_fatal(self, tmp_path, g2):
        class Flaky:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def evaluate(self, orders):
                out = self.inner.evaluate(orders)
                self.calls += 1
                if self.calls == 2:  # poison one whole generation
                    from repro.autotune import EvalRecord
                    out = [
                        EvalRecord(r.key, 0, 0.0, 0.0, False, error="boom")
                        for r in out
                    ]
                return out

            def close(self):
                pass

        config = TuneConfig(r=2, cache_size=12, strategy="anneal",
                            budget=12, generation=3, seed=2)
        res = AutoTuner(config, Flaky(LocalEvaluator(g2, 12))).run()
        assert res.failures >= 1
        assert res.best_io <= res.start_io


class TestExternalSolver:
    SOLVER = """\
import json, sys
problem = json.load(open(sys.argv[1]))
n = problem["n_products"]
if problem["incumbent"] is None:
    order = list(range(n - 1, -1, -1))
else:
    order = list(problem["incumbent"])
print("solver log line", file=sys.stderr)
print(json.dumps({"order": order}))
"""

    def test_subprocess_solver_round_trip(self, g2, tmp_path):
        script = tmp_path / "solver.py"
        script.write_text(self.SOLVER)
        config = TuneConfig(r=2, cache_size=12, strategy="external",
                            budget=10, generation=4, seed=1)
        res = AutoTuner(
            config,
            LocalEvaluator(g2, 12),
            strategy_options={
                "solver_cmd": [sys.executable, str(script)],
                "cache_dir": str(tmp_path / "problems"),
            },
        ).run()
        # Seed generation + one solver proposal, then convergence.
        assert res.evaluations == 2
        assert res.best_io <= res.start_io
        problems = list((tmp_path / "problems").glob("problem-*.json"))
        assert problems, "problem files are content-addressed on disk"
        for p in problems:
            json.loads(p.read_text())  # valid JSON handed to the solver

    def test_solver_cmd_required(self):
        with pytest.raises(ReproError, match="solver"):
            make_strategy("external")

    def test_broken_solver_raises(self, g2, tmp_path):
        config = TuneConfig(r=2, cache_size=12, strategy="external",
                            budget=4, generation=2, seed=1)
        tuner = AutoTuner(
            config,
            LocalEvaluator(g2, 12),
            strategy_options={
                "solver_cmd": [str(tmp_path / "no-such-solver")],
                "cache_dir": str(tmp_path / "problems"),
            },
        )
        with pytest.raises(ReproError, match="external solver failed"):
            tuner.run()
