"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root declares the same names; the
self-test (``test_suite.py``) keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "io_sweep": (
        "E9 grid at n=4..16 plus a seeded random product order: "
        "simulation-bound, many small plans each reused across 2-8 "
        "(M, policy) configs"
    ),
    "io_n32": (
        "one n=32 recursive execution at M=12: the largest single plan, "
        "no reuse, so schedule generation, plan size and memory dominate"
    ),
    "hk_dominators": (
        "E14.1 Hong-Kung cuts of Strassen and classical G_3 at M=32: "
        "max-flow-bound, simulation about 1%"
    ),
    "routing_cert": (
        "Theorem 2 certificates for Strassen and Winograd at k=3: "
        "path-object-bound, Hall matching but no simulation"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: The end-to-end metric and workload this layer metric should move.
    moves: str


# The time bounds are the widest allowed because the host is noisy: the
# quartile spread of per-run wall_s medians over seeds 0-9 was 6-25%
# (see README.md).  peak_rss_mb spread was under 0.2%.
END_TO_END = [
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05),
]

PER_LAYER = [
    PerLayer("cdag.build_s", "s", "lower", "cdag", "wall_s on io_n32"),
    PerLayer("cdag.vertices", "count", "lower", "cdag", "wall_s on io_n32"),
    PerLayer("cdag.metavertices_s", "s", "lower", "cdag", "wall_s on routing_cert"),
    PerLayer("schedules.recursive_s", "s", "lower", "schedules", "wall_s on io_n32, io_sweep"),
    PerLayer("schedules.demand_driven_s", "s", "lower", "schedules",
             "wall_s on io_n32 (~38%), io_sweep"),
    PerLayer("schedules.rank_order_s", "s", "lower", "schedules", "wall_s on io_sweep"),
    PerLayer("schedules.random_product_order_s", "s", "lower", "schedules",
             "wall_s on io_sweep"),
    PerLayer("schedules.loop_order_s", "s", "lower", "schedules", "wall_s on hk_dominators"),
    PerLayer("schedules.rss_delta_mb", "MiB", "lower", "schedules", "peak_rss_mb on io_n32"),
    PerLayer("simcore.plan_s", "s", "lower", "simcore", "wall_s on io_n32"),
    PerLayer("simcore.plan.rss_delta_mb", "MiB", "lower", "simcore", "peak_rss_mb on io_n32"),
    PerLayer("simcore.run_many_s", "s", "lower", "simcore", "wall_s on io_sweep"),
    PerLayer("simcore.lru_s", "s", "lower", "simcore", "wall_s, cpu_s on io_sweep, io_n32"),
    PerLayer("simcore.belady_s", "s", "lower", "simcore", "wall_s, cpu_s on io_sweep"),
    PerLayer("simcore.configs", "count", "lower", "simcore", "wall_s on io_sweep"),
    PerLayer("simcore.steps", "count", "lower", "simcore", "wall_s on io_sweep, io_n32"),
    PerLayer("simcore.steps_per_s", "1/s", "higher", "simcore",
             "wall_s on io_sweep, io_n32; flat on hk_dominators, routing_cert"),
    PerLayer("simcore.run_many.rss_delta_mb", "MiB", "lower", "simcore",
             "peak_rss_mb on io_n32"),
    PerLayer("simcore.kernel.fallback", "count", "lower", "simcore",
             "wall_s on io_sweep (which path ran)"),
    PerLayer("simcore.kernel.jit", "count", "higher", "simcore",
             "wall_s on io_sweep (which path ran)"),
    PerLayer("pebbling.partition_s", "s", "lower", "pebbling", "wall_s on hk_dominators (~1%)"),
    PerLayer("pebbling.parts", "count", "lower", "pebbling", "wall_s on hk_dominators"),
    PerLayer("pebbling.run.evictions", "count", "lower", "pebbling",
             "wall_s on io_sweep, io_n32"),
    PerLayer("bounds.dominator_s", "s", "lower", "bounds", "wall_s on hk_dominators (~97%)"),
    PerLayer("bounds.dominator_calls", "count", "lower", "bounds", "wall_s on hk_dominators"),
    PerLayer("bounds.minimum_set_s", "s", "lower", "bounds", "wall_s on hk_dominators"),
    PerLayer("flow.max_flow_s", "s", "lower", "utils.flow", "wall_s on hk_dominators"),
    PerLayer("flow.graph_build_s", "s", "lower", "utils.flow", "wall_s on hk_dominators"),
    PerLayer("flow.matching_s", "s", "lower", "utils.flow", "wall_s on routing_cert"),
    PerLayer("routing.certificate_s", "s", "lower", "routing", "wall_s on routing_cert"),
    PerLayer("routing.lemma3_s", "s", "lower", "routing", "wall_s on routing_cert"),
    PerLayer("routing.hall_s", "s", "lower", "routing", "wall_s on routing_cert"),
    PerLayer("routing.lemma4_s", "s", "lower", "routing",
             "wall_s, peak_rss_mb on routing_cert"),
    PerLayer("routing.chain_usage_s", "s", "lower", "routing", "wall_s on routing_cert"),
    PerLayer("routing.verify_s", "s", "lower", "routing", "wall_s on routing_cert"),
    PerLayer("routing.paths", "count", "higher", "routing", "wall_s on routing_cert"),
    PerLayer("routing.paths_per_s", "1/s", "higher", "routing", "wall_s on routing_cert"),
    PerLayer("telemetry.overhead_s", "s", "lower", "telemetry",
             "nothing; growth means instrumented code got heavier"),
]
