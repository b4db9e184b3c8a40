"""Benchmark E10: Strassen vs classical crossovers.

Regenerates the experiment's report tables (recorded in EXPERIMENTS.md)
and asserts every paper-claim check; pytest-benchmark tracks the
regeneration cost.  The sweep variant fans trace sizes out on the
parallel runner.
"""


def test_e10_crossover(run_experiment):
    run_experiment("E10")


def test_e10_sweep_via_runner(run_sweep_benchmark):
    from repro.runner import expand_grid, sweep_ok

    specs = expand_grid("E10", {"trace_n": [32, 64]})
    outcomes = run_sweep_benchmark(specs, workers=2)
    assert len(outcomes) == 2
    assert sweep_ok(outcomes)
