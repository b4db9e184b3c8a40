"""Telemetry counter identity for the array-backed executor.

The ``pebbling.run`` span counters (scheduled/reads/writes/evictions/
spill_reads/spill_writes, plus the ``peak_cache`` value) are part of the
executor's observable contract: dashboards and perf baselines consume
them.  The vectorised core must emit exactly the values the reference
simulator implies — per configuration, and identically through
``run()`` and ``run_many()``.
"""

import pytest

from repro import telemetry
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor
from repro.schedules import rank_order_schedule, recursive_schedule

from ..pebbling._reference import reference_run

CONFIGS = [(8, "lru"), (8, "belady"), (12, "fifo"), (24, "belady")]


@pytest.fixture()
def workload():
    g = build_cdag(strassen(), 2)
    return g, recursive_schedule(g)


def _finished(name="pebbling.run"):
    return [s for s in telemetry.collected_spans() if s["name"] == name]


def _expected_counters(g, sched, cache_size, policy):
    """Counters the reference simulator implies for one configuration."""
    res, evictions = reference_run(g, sched, cache_size, policy)
    n_inputs = int((g.in_degree() == 0).sum())
    return {
        "scheduled": g.n_vertices - n_inputs,
        "reads": res.reads,
        "writes": res.writes,
        "evictions": evictions,
        "spill_reads": res.spill_reads,
        "spill_writes": res.spill_writes,
        "peak_cache": res.peak_cache,
    }


def test_run_counters_match_reference(workload):
    g, sched = workload
    telemetry.enable()
    ex = CacheExecutor(g)
    for cache_size, policy in CONFIGS:
        telemetry.reset()
        ex.run(sched, cache_size, policy)
        spans = _finished()
        assert len(spans) == 1
        sp = spans[0]
        assert sp["attrs"] == {"policy": policy, "cache_size": cache_size}
        assert sp["counters"] == _expected_counters(g, sched, cache_size, policy)


def test_run_many_emits_identical_spans(workload):
    """One span per configuration, counters identical to run()."""
    g, sched = workload
    telemetry.enable()
    ex = CacheExecutor(g)

    telemetry.reset()
    for cache_size, policy in CONFIGS:
        ex.run(sched, cache_size, policy)
    one_by_one = [
        (s["attrs"]["cache_size"], s["attrs"]["policy"], s["counters"])
        for s in _finished()
    ]

    telemetry.reset()
    results = ex.run_many(
        sched, sorted({M for M, _ in CONFIGS}), ("lru", "fifo", "belady")
    )
    batched = {
        (s["attrs"]["cache_size"], s["attrs"]["policy"]): s["counters"]
        for s in _finished()
    }
    assert len(batched) == len(results)
    for M, policy, counters in one_by_one:
        assert batched[(M, policy)] == counters


def test_plan_cache_counters(workload):
    """Repeat runs of one schedule hit the plan the executor keeps; the
    hit/miss counters make that observable (re-running a schedule, e.g.
    under another cache size, must not recompile)."""
    g, sched = workload
    telemetry.enable()
    telemetry.reset()
    ex = CacheExecutor(g)
    ex.run(sched, 8, "belady")
    reg = telemetry.metrics()
    assert reg.counter("pebbling.plan.miss").value == 1
    assert reg.counter("pebbling.plan.hit").value == 0
    for _ in range(3):
        ex.run(sched, 8, "belady")
    assert reg.counter("pebbling.plan.miss").value == 1
    assert reg.counter("pebbling.plan.hit").value == 3


def test_executor_keeps_only_the_last_plan(workload):
    """Compiling schedules A, B, A on one executor misses three times:
    B's plan replaces A's."""
    g, sched = workload
    telemetry.enable()
    telemetry.reset()
    ex = CacheExecutor(g)
    for schedule in (sched, rank_order_schedule(g), sched):
        ex.compile(schedule)
    reg = telemetry.metrics()
    assert reg.counter("pebbling.plan.miss").value == 3
    assert reg.counter("pebbling.plan.hit").value == 0


def test_kernel_path_counter_per_simulation(workload):
    """Each simulation increments ``simcore.kernel.fallback`` once —
    through run() and once per configuration through run_many(),
    whether a pass or the loop counted it."""
    g, sched = workload
    telemetry.enable()
    telemetry.reset()
    ex = CacheExecutor(g)
    ex.run(sched, 8, "belady")
    reg = telemetry.metrics()
    assert reg.counter("simcore.kernel.fallback").value == 1
    ex.run_many(sched, (8, 12, 24), ("lru", "fifo", "belady"))
    assert reg.counter("simcore.kernel.fallback").value == 10


def test_disabled_telemetry_skips_run_counters(workload):
    """With telemetry disabled, runs leave the registry untouched — no
    kernel path counters (the hoisted disabled-path check)."""
    g, sched = workload
    telemetry.disable()
    telemetry.reset()
    ex = CacheExecutor(g)
    ex.run(sched, 8, "belady")
    ex.run_many(sched, (8, 12), ("lru", "belady"))
    reg = telemetry.metrics()
    assert reg.counter("simcore.kernel.fallback").value == 0
    # Plan cache accounting stays unconditional (cheap).
    assert reg.counter("pebbling.plan.miss").value == 1
