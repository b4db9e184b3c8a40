"""Micro-benchmarks of the library's hot paths.

Not tied to a paper figure; these keep the substrate's performance
honest (CDAG construction, demand-driven schedules, pebble-game
execution, the LRU and Belady passes, routing construction) so the
experiment benches stay fast as the code evolves.

Two entry points over the same workloads:

- ``pytest benchmarks/bench_micro.py`` — pytest-benchmark statistics for
  interactive tuning;
- ``python benchmarks/bench_micro.py [--json-out PATH]`` — standalone
  run that emits one machine-readable JSON document (median-of-k wall
  times per case plus the telemetry counters collected while running)
  via :mod:`repro.telemetry.export`, for dashboards and CI artifacts.
  ``--select PREFIX`` runs, and builds the inputs of, only the cases
  whose name starts with ``PREFIX``.
"""

import argparse
import json
import statistics
import sys
import time
from functools import partial

import numpy as np

from repro.bilinear import strassen
from repro.cdag import build_cdag, compute_metavertices
from repro.linalg import strassen_matmul
from repro.pebbling import CacheExecutor
from repro.routing import lemma3_routing, theorem2_routing
from repro.schedules import (
    demand_driven_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.simcore import SchedulePlan, simulate_py
from repro.simcore.stack import belady_counts
from repro.tracesim import FullyAssociativeLRU, trace_blocked


def test_build_cdag_r4(benchmark):
    benchmark(build_cdag, strassen(), 4)


def test_metavertices_r4(benchmark):
    g = build_cdag(strassen(), 4)
    benchmark(compute_metavertices, g)


def test_recursive_schedule_r4(benchmark):
    g = build_cdag(strassen(), 4)
    benchmark(recursive_schedule, g)


def test_executor_lru_r4(benchmark):
    g = build_cdag(strassen(), 4)
    executor = CacheExecutor(g)
    sched = executor.validate_schedule(recursive_schedule(g))
    benchmark(executor.run, sched, 64, "lru", False)


def test_executor_belady_r3(benchmark):
    g = build_cdag(strassen(), 3)
    executor = CacheExecutor(g)
    sched = executor.validate_schedule(recursive_schedule(g))
    benchmark(executor.run, sched, 64, "belady", False)


def test_executor_run_many_r4(benchmark):
    g = build_cdag(strassen(), 4)
    executor = CacheExecutor(g)
    sched = recursive_schedule(g)
    benchmark(executor.run_many, sched, (12, 48, 96), ("lru", "belady"))


def test_lemma3_routing_k3(benchmark):
    g = build_cdag(strassen(), 3)
    benchmark(lemma3_routing, g)


def test_theorem2_routing_k2(benchmark):
    g = build_cdag(strassen(), 2)
    benchmark(theorem2_routing, g)


def test_strassen_matmul_64(benchmark):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    benchmark(strassen_matmul, A, B, None, 8)


def test_trace_sim_blocked_32(benchmark):
    def run():
        return FullyAssociativeLRU(192).run(trace_blocked(32, 8))

    benchmark(run)


# ---------------------------------------------------------------------------
# Standalone machine-readable mode.


def _importable_tests():
    """Put the repository root on ``sys.path`` so the golden references
    under ``tests/`` import."""
    import pathlib

    repo_root = str(pathlib.Path(__file__).resolve().parent.parent)
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)


def _reference_run():
    """The pre-vectorisation executor kept under ``tests/`` as the
    golden reference; benchmarked against the array core so the JSON
    artifact records the measured speedup."""
    _importable_tests()
    from tests.pebbling._reference import reference_run

    return reference_run


def _reference_walk():
    """The demand-driven walk kept under ``tests/`` as the golden
    reference; benchmarked against the key sort so the JSON artifact
    records the measured speedup."""
    _importable_tests()
    from tests.schedules._reference import demand_driven_schedule as walk

    return walk


def make_cases() -> dict:
    """The same workloads as the pytest benches; name -> zero-arg
    builder that sets the case up and returns its timed zero-arg body.

    Nothing is built until a case's builder runs, so a ``--select``
    builds only the inputs of the cases it picks.  Graphs, and the
    executors with their validated recursive schedules, come from one
    memo shared by every builder, so cases run together share them
    (and the executors' plan caches) as a single setup would.
    """
    memo: dict = {}

    def shared(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def graph(r):
        return shared(("graph", r), lambda: build_cdag(strassen(), r))

    def executor(r):
        """``(executor, validated recursive schedule)`` on G_r."""
        def build():
            ex = CacheExecutor(graph(r))
            return ex, ex.validate_schedule(recursive_schedule(graph(r)))
        return shared(("executor", r), build)

    e9_Ms = (12, 24, 48, 96)

    def rank5():
        return shared("rank5", lambda: rank_order_schedule(graph(5)))

    def executor_lru_r4():
        ex4, sched4 = executor(4)
        return lambda: ex4.run(sched4, 64, "lru", False)

    def executor_belady_r3():
        ex3, sched3 = executor(3)
        return lambda: ex3.run(sched3, 64, "belady", False)

    # Paired sweep cases: the batched API on one executor vs the
    # pre-run_many idiom (a fresh executor per configuration, so
    # validation and use-list precompute repeat).  run_benchmarks
    # derives their ratio into "executor_sweep_speedup".
    def executor_sweep_run_many():
        ex4, sched4 = executor(4)
        return lambda: ex4.run_many(sched4, (12, 48, 96), ("lru", "belady"))

    def executor_sweep_repeated_run():
        g4 = graph(4)
        _, sched4 = executor(4)
        return lambda: [
            CacheExecutor(g4).run(sched4, M, pol)
            for M in (12, 48, 96)
            for pol in ("lru", "belady")
        ]

    # The full E9 n=32 measurement grid (12 configurations) on the
    # array core + run_many vs the pre-vectorisation reference
    # simulator; their ratio lands in "executor_e9_n32_speedup".
    def executor_e9_n32_grid_core():
        g5 = graph(5)
        _, sched5 = executor(5)
        rank = rank5()

        def run():
            ex = CacheExecutor(g5)
            ex.run_many(sched5, e9_Ms, ("belady", "lru"))
            ex.run_many(rank, e9_Ms, ("lru",))
        return run

    def executor_e9_n32_grid_reference():
        g5 = graph(5)
        _, sched5 = executor(5)
        grid = [(sched5, "belady"), (sched5, "lru"), (rank5(), "lru")]
        reference_run = _reference_run()

        def run():
            for M in e9_Ms:
                for sched, pol in grid:
                    reference_run(g5, sched, M, pol)
        return run

    # Paired Belady cases: E9's four cache sizes over the r = 4
    # recursive schedule from one interval pass vs one loop run per size
    # (the loop's lists built beforehand, as a batch builds them once).
    # Their ratio lands in "belady_pass_speedup".
    def belady_inputs():
        def build():
            g4 = graph(4)
            plan4 = SchedulePlan(g4, executor(4)[1], validated=True)
            plan4.ensure_lists(True)
            is_output4 = np.zeros(g4.n_vertices, dtype=bool)
            is_output4[g4.outputs()] = True
            return plan4, g4.in_degree() == 0, is_output4
        return shared("belady4", build)

    def belady_pass_r4():
        plan4, is_input4, is_output4 = belady_inputs()
        return lambda: belady_counts(plan4, is_input4, is_output4, e9_Ms)

    def belady_loop_r4():
        plan4, is_input4, is_output4 = belady_inputs()

        def run():
            for M in e9_Ms:
                simulate_py(plan4, is_input4, is_output4, M, 2)
        return run

    # Paired schedule cases: the r = 4 recursive order through
    # demand_driven_schedule (one sort of per-vertex keys) vs the walk
    # kept under tests/.  Their ratio lands in "schedule_keys_speedup".
    def schedule_keys_r4():
        g4 = graph(4)
        order = np.arange(len(g4.products()))
        return lambda: demand_driven_schedule(g4, order)

    def schedule_walk_r4():
        g4 = graph(4)
        order = np.arange(len(g4.products()))
        walk = _reference_walk()
        return lambda: walk(g4, order)

    def strassen_matmul_64():
        rng = np.random.default_rng(0)
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        return lambda: strassen_matmul(A, B, None, 8)

    return {
        "build_cdag_r4": lambda: (lambda: build_cdag(strassen(), 4)),
        "metavertices_r4": lambda: partial(compute_metavertices, graph(4)),
        "recursive_schedule_r4": lambda: partial(recursive_schedule, graph(4)),
        "executor_lru_r4": executor_lru_r4,
        "executor_belady_r3": executor_belady_r3,
        "executor_sweep_run_many": executor_sweep_run_many,
        "executor_sweep_repeated_run": executor_sweep_repeated_run,
        "executor_e9_n32_grid_core": executor_e9_n32_grid_core,
        "executor_e9_n32_grid_reference": executor_e9_n32_grid_reference,
        "belady_pass_r4": belady_pass_r4,
        "belady_loop_r4": belady_loop_r4,
        "schedule_keys_r4": schedule_keys_r4,
        "schedule_walk_r4": schedule_walk_r4,
        "lemma3_routing_k3": lambda: partial(lemma3_routing, graph(3)),
        "theorem2_routing_k2": lambda: partial(theorem2_routing, graph(2)),
        "strassen_matmul_64": strassen_matmul_64,
        "trace_sim_blocked_32": lambda: (
            lambda: FullyAssociativeLRU(192).run(trace_blocked(32, 8))
        ),
    }


def run_benchmarks(repeats: int = 3, select: str | None = None) -> dict:
    """Run the micro-benchmarks and return the machine-readable doc."""
    from repro import telemetry
    from repro.telemetry.export import telemetry_to_json

    was_enabled = telemetry.enabled()
    telemetry.enable()
    telemetry.reset()
    results: dict[str, dict] = {}
    try:
        for name, build in make_cases().items():
            if select and not name.startswith(select):
                continue
            fn = build()
            times = []
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            results[name] = {
                "median_s": statistics.median(times),
                "min_s": min(times),
                "repeats": len(times),
            }
    finally:
        if not was_enabled:
            telemetry.disable()
    doc = telemetry_to_json(
        registry=telemetry.metrics(),
        metadata={"tool": "bench_micro", "repeats": repeats},
    )
    doc["benchmarks"] = results
    derived = {}
    for label, fast, slow in (
        ("executor_sweep_speedup",
         "executor_sweep_run_many", "executor_sweep_repeated_run"),
        ("executor_e9_n32_speedup",
         "executor_e9_n32_grid_core", "executor_e9_n32_grid_reference"),
        ("belady_pass_speedup", "belady_pass_r4", "belady_loop_r4"),
        ("schedule_keys_speedup", "schedule_keys_r4", "schedule_walk_r4"),
    ):
        a, b = results.get(fast), results.get(slow)
        if a and b and a["median_s"] > 0:
            derived[label] = round(b["median_s"] / a["median_s"], 2)
    if derived:
        doc["derived"] = derived
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Micro-benchmarks with machine-readable JSON output."
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="timed runs per case; the median is reported (default 3)",
    )
    parser.add_argument(
        "--select", default=None, metavar="PREFIX",
        help="run (and build the inputs of) only cases whose name "
             "starts with PREFIX",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the JSON document here (default: stdout)",
    )
    args = parser.parse_args(argv)
    doc = run_benchmarks(repeats=args.repeats, select=args.select)
    if not doc["benchmarks"]:
        print(f"no case matches --select {args.select!r}", file=sys.stderr)
        return 2
    if args.json_out:
        from repro.telemetry.export import write_json

        write_json(args.json_out, doc)
        print(f"wrote {args.json_out} ({len(doc['benchmarks'])} cases)")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
