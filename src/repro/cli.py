"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``catalog``               — list the algorithm catalog with parameters;
- ``bounds``                — evaluate Theorem 1 (and baselines) at (n, M, P);
- ``simulate``              — pebble-game I/O of a schedule on G_r;
- ``route``                 — build and verify a Theorem-2 certificate;
- ``caps``                  — simulate parallel bandwidth for (n, P, M);
- ``experiments``           — run the reproduction experiments;
- ``sweep``                 — parallel experiment sweep with an on-disk
  result cache, per-job timeouts, retries, and a JSONL event log;
  rerunning a killed sweep serves every finished job from the cache;
- ``perf``                  — record or compare ``BENCH_<exp>.json``
  perf baselines (``--compare`` exits nonzero on regression);
- ``tune``                  — schedule search minimising the Belady gap:
  candidates are content-addressed jobs deduped through the sweep
  store, so rerunning a killed search replays its trajectory from the
  store (see :mod:`repro.autotune`);
- ``render``                — DOT/ASCII rendering of a base graph.

``sweep`` and ``tune`` accept ``--json``: after the human-readable
output, one final machine-readable JSON line with the job/hit/failure
counts and wall time.  Their exit codes: **0** — every job reached a
successful terminal state (for ``tune``: the search completed, improved
or not); **1** — at least one job failed (for ``tune``: the search
failed — no successful evaluation).

``route``, ``experiments``, ``sweep`` and ``tune`` accept ``--trace-out
PATH``: collect telemetry during the run and write the spans as a Chrome
``trace_event`` file loadable in ``chrome://tracing``/Perfetto.
``python -m repro.experiments`` is ``experiments`` under another name.

Everything the CLI prints is computed by the same public API the tests
exercise; the CLI adds no logic of its own.
"""

from __future__ import annotations

import argparse
import sys

from repro.bilinear import by_name, list_catalog
from repro.bilinear.compose import named_compositions
from repro.telemetry.baseline import DEFAULT_PERF_IDS
from repro.utils.tables import TextTable

__all__ = ["main", "build_parser"]


def _add_trace_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="collect telemetry spans and counters during the run and "
             "write the spans here as a Chrome trace_event JSON",
    )


def _begin_trace(args) -> None:
    """Enable telemetry when ``--trace-out`` asks for it."""
    if args.trace_out:
        from repro import telemetry

        telemetry.enable()


def _end_trace(args, command: str) -> None:
    """Write the Chrome trace ``--trace-out`` asked for, if any."""
    if not args.trace_out:
        return
    from repro import telemetry

    spans = telemetry.collected_spans()
    telemetry.write_chrome_trace(
        args.trace_out, spans, metadata={"command": command}
    )
    print(f"trace: {args.trace_out} ({len(spans)} spans)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Matrix Multiplication "
            "I/O-Complexity by Path Routing' (SPAA 2015)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list available algorithms")

    p_bounds = sub.add_parser("bounds", help="evaluate Theorem 1 bounds")
    p_bounds.add_argument("--alg", default="strassen")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--M", type=int, required=True)
    p_bounds.add_argument("--P", type=int, default=1)

    p_sim = sub.add_parser("simulate", help="pebble-game I/O of G_r")
    p_sim.add_argument("--alg", default="strassen")
    p_sim.add_argument("--r", type=int, required=True)
    p_sim.add_argument("--M", type=int, required=True)
    p_sim.add_argument(
        "--schedule", default="recursive",
        choices=["recursive", "rank", "random"],
    )
    p_sim.add_argument(
        "--policy", default="lru", choices=["lru", "fifo", "belady"]
    )
    p_sim.add_argument("--seed", type=int, default=0)

    p_route = sub.add_parser("route", help="Theorem-2 routing certificate")
    p_route.add_argument("--alg", default="strassen")
    p_route.add_argument("--k", type=int, default=1)
    _add_trace_out(p_route)

    p_caps = sub.add_parser("caps", help="parallel bandwidth simulation")
    p_caps.add_argument("--alg", default="strassen")
    p_caps.add_argument("--n", type=int, required=True)
    p_caps.add_argument("--P", type=int, required=True)
    p_caps.add_argument("--M", type=int, required=True)
    p_caps.add_argument(
        "--strategy", default="auto",
        choices=["auto", "bfs-first", "dfs-first"],
    )

    p_exp = sub.add_parser("experiments", help="run reproduction experiments")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default all)")
    p_exp.add_argument(
        "--list", action="store_true", dest="list_only",
        help="list registered experiment ids and exit",
    )
    _add_trace_out(p_exp)

    p_sweep = sub.add_parser(
        "sweep",
        help="run experiments in parallel with caching and retries",
        description=(
            "Expand experiment ids (optionally with parameter grids and "
            "seeds) into jobs, run each in its own process, cache every "
            "artifact on disk, and aggregate the results.  Re-running an "
            "identical sweep is served from the cache, so rerunning an "
            "interrupted sweep resumes where it stopped."
        ),
    )
    p_sweep.add_argument("ids", nargs="*", help="experiment ids (default all)")
    p_sweep.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="job processes run at once (default 2)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store root (default .repro-cache)",
    )
    p_sweep.add_argument(
        "--fresh", action="store_true",
        help="ignore the cache and recompute (overwrites artifacts)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock limit (default: none)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="failed attempts each job may absorb beyond the first "
             "(default 1)",
    )
    p_sweep.add_argument(
        "--param", action="append", default=[], metavar="[EXP:]key=v1,v2",
        help="sweep a parameter over values, e.g. 'E9:r_max=3,4' "
             "(repeatable; without EXP: applies to every selected id)",
    )
    p_sweep.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="fan seed-aware experiments over explicit seeds "
             "(each seed is a distinct cached job)",
    )
    p_sweep.add_argument(
        "--events", default=None, metavar="PATH",
        help="JSONL event log (default <cache-dir>/events.jsonl)",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true",
        help="print only the summary, not each experiment report",
    )
    p_sweep.add_argument(
        "--json", action="store_true", dest="json_line",
        help="after the report, print one machine-readable JSON summary "
             "line (jobs, hits, failures, wall time)",
    )
    _add_trace_out(p_sweep)

    p_perf = sub.add_parser(
        "perf",
        help="record or compare perf baselines (BENCH_<exp>.json)",
        description=(
            "Without --compare, measure the selected experiments "
            "(median of --repeats runs, telemetry counters attached) and "
            "write BENCH_<exp>.json snapshots.  With --compare, "
            "re-measure and diff against the committed snapshots, "
            "exiting nonzero when any median time regresses past "
            "--threshold; a drifted counter also fails the compare."
        ),
    )
    p_perf.add_argument(
        "ids", nargs="*",
        help=f"experiment ids (default: {' '.join(DEFAULT_PERF_IDS)})",
    )
    p_perf.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="timed runs per experiment; the median is kept (default 3)",
    )
    p_perf.add_argument(
        "--compare", action="store_true",
        help="compare against stored baselines instead of rewriting them",
    )
    p_perf.add_argument(
        "--threshold", type=float, default=1.5, metavar="RATIO",
        help="max allowed current/baseline median-time ratio (default 1.5)",
    )
    p_perf.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="where BENCH_<exp>.json files live (default: repo root '.')",
    )
    p_perf.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write the measurement spans as a Chrome trace",
    )
    p_perf.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write combined spans+metrics JSON",
    )

    p_tune = sub.add_parser(
        "tune",
        help="schedule search that closes the Belady gap",
        description=(
            "Search demand-driven product orders for schedules whose "
            "measured I/O under offline-MIN eviction approaches the "
            "Theorem-1 bound (the Belady gap is the objective).  Every "
            "candidate evaluation is a content-addressed job deduped "
            "through the sweep result store, so rerunning a killed "
            "search with the same --cache-dir replays its trajectory "
            "and serves what it stored from the store.  Exit codes: "
            "0 — search completed (improved or not); 1 — search "
            "failed (no successful evaluation)."
        ),
    )
    p_tune.add_argument("--alg", default="strassen")
    p_tune.add_argument("--r", type=int, default=3)
    p_tune.add_argument(
        "--M", type=int, default=24, dest="cache_size",
        help="cache size for the objective (default 24)",
    )
    p_tune.add_argument(
        "--policy", default="belady",
        choices=["belady", "lru", "fifo"],
        help="eviction policy the objective is measured under "
             "(default belady: evaluates the order itself)",
    )
    p_tune.add_argument(
        "--strategy", default="hillclimb",
        choices=["anneal", "genetic", "hillclimb", "portfolio"],
        help="search strategy (default hillclimb)",
    )
    p_tune.add_argument(
        "--budget", type=int, default=64, metavar="N",
        help="candidate evaluations to spend; ledger and store hits "
             "charge it too, so trajectories are cache-independent "
             "(default 64)",
    )
    p_tune.add_argument(
        "--generation", type=int, default=8, metavar="K",
        help="proposals per generation (default 8)",
    )
    p_tune.add_argument("--seed", type=int, default=None)
    p_tune.add_argument(
        "--fresh", action="store_true",
        help="bypass the result store and recompute every candidate",
    )
    p_tune.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store root candidate jobs dedupe through "
             "(default .repro-cache)",
    )
    p_tune.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="pool workers per generation (default 2)",
    )
    p_tune.add_argument(
        "--local", action="store_true",
        help="evaluate in-process against one shared executor instead "
             "of the worker pool (fastest for small grids)",
    )
    p_tune.add_argument(
        "--json", action="store_true", dest="json_line",
        help="after the report, print one machine-readable JSON "
             "summary line",
    )
    _add_trace_out(p_tune)

    p_render = sub.add_parser("render", help="render a base graph")
    p_render.add_argument("--alg", default="strassen")
    p_render.add_argument("--r", type=int, default=1)
    p_render.add_argument(
        "--format", default="ascii", choices=["ascii", "dot"]
    )
    return parser


def _cmd_catalog() -> int:
    table = TextTable(
        ["name", "n0", "b", "omega0", "fast", "single-use", "dec comps"],
        title="Algorithm catalog",
    )
    for alg in list_catalog() + named_compositions():
        table.add_row(
            [alg.name, alg.n0, alg.b, round(alg.omega0, 4),
             "yes" if alg.is_strassen_like else "no",
             "yes" if alg.satisfies_single_use() else "no",
             len(alg.decoder_components())]
        )
    print(table.render())
    return 0


def _cmd_bounds(args) -> int:
    from repro.bounds import (
        classical_io_lower_bound,
        io_lower_bound,
        memory_independent_lower_bound,
        parallel_bandwidth_lower_bound,
        recursive_io_upper_bound,
    )

    alg = by_name(args.alg)
    print(f"{alg.name}: omega0 = {alg.omega0:.4f}")
    print(f"n = {args.n}, M = {args.M}, P = {args.P}")
    print(f"  Theorem 1 sequential I/O >= "
          f"{io_lower_bound(alg, args.n, args.M):.4e}")
    print(f"  recursive upper bound     ~ "
          f"{recursive_io_upper_bound(alg, args.n, args.M):.4e}")
    print(f"  Hong-Kung (classical)    >= "
          f"{classical_io_lower_bound(args.n, args.M):.4e}")
    if args.P > 1:
        print(f"  parallel bandwidth       >= "
              f"{parallel_bandwidth_lower_bound(alg, args.n, args.M, args.P):.4e}")
        print(f"  memory-independent       >= "
              f"{memory_independent_lower_bound(alg, args.n, args.P):.4e}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.bounds import io_lower_bound
    from repro.cdag import build_cdag
    from repro.pebbling import simulate_io
    from repro.schedules import (
        random_topological_schedule,
        rank_order_schedule,
        recursive_schedule,
    )

    alg = by_name(args.alg)
    g = build_cdag(alg, args.r)
    sched = {
        "recursive": lambda: recursive_schedule(g),
        "rank": lambda: rank_order_schedule(g),
        "random": lambda: random_topological_schedule(g, seed=args.seed),
    }[args.schedule]()
    res = simulate_io(g, sched, args.M, policy=args.policy)
    n = alg.n0**args.r
    print(f"{g} with {args.schedule} schedule, M={args.M}, {args.policy}:")
    print(f"  reads={res.reads} writes={res.writes} total={res.total}")
    print(f"  (input reads {res.input_reads}, spills "
          f"{res.spill_reads}r/{res.spill_writes}w, outputs "
          f"{res.output_writes})")
    print(f"  Theorem 1 lower bound: {io_lower_bound(alg, n, args.M):.1f}")
    return 0


def _cmd_route(args) -> int:
    from repro.routing import theorem2_certificate

    _begin_trace(args)
    alg = by_name(args.alg)
    cert = theorem2_certificate(alg, args.k)
    _end_trace(args, "route")
    print(f"Theorem 2 certificate for {alg.name}, k={args.k}:")
    print(f"  paths: {cert.report.n_paths}")
    print(f"  claimed m = 6a^k = {cert.claimed_m}")
    print(f"  measured max vertex hits: {cert.report.max_vertex_hits}")
    print(f"  measured max meta hits:   {cert.report.max_meta_hits}")
    print(f"  lemma 3 max hits (<= {2 * alg.n0 ** args.k}): "
          f"{cert.lemma3_max_hits}")
    print(f"  single-use assumption: {cert.single_use}")
    print(f"  VERIFIED: {cert.report.within_bound}")
    return 0 if cert.report.within_bound else 1


def _cmd_caps(args) -> int:
    from repro.parallel import DistributedMachine, simulate_caps

    alg = by_name(args.alg)
    run = simulate_caps(
        alg, args.n, DistributedMachine(args.P, args.M), args.strategy
    )
    print(f"CAPS simulation: {alg.name}, n={args.n}, P={args.P}, "
          f"M={args.M}, strategy={args.strategy}")
    print(f"  schedule: {run.schedule_string}")
    print(f"  bandwidth cost: {run.bandwidth_cost} words")
    print(f"  peak memory/processor: {run.peak_memory_per_processor:.0f}")
    return 0


def _describe(experiment_id: str) -> str:
    """First docstring line of the experiment's module."""
    from repro.experiments import get_experiment

    module = sys.modules[get_experiment(experiment_id).__module__]
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def _cmd_experiments(args) -> int:
    from repro.experiments import get_experiment, list_experiments

    if args.list_only:
        for experiment_id in list_experiments():
            print(f"{experiment_id:5s} {_describe(experiment_id)}")
        return 0

    ids = args.ids or list_experiments()
    _begin_trace(args)
    failures = []
    for experiment_id in ids:
        result = get_experiment(experiment_id)()
        print(result.render())
        print()
        if not result.all_checks_pass:
            failures.append(experiment_id)
    _end_trace(args, "experiments")
    if failures:
        print(f"FAILED experiments: {failures}")
        return 1
    print(f"All {len(ids)} experiments reproduced.")
    return 0


def _parse_value(text: str):
    """CLI grid values: JSON when it parses, bare string otherwise."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_param_specs(specs: list[str], ids: list[str]) -> dict[str, dict]:
    """``['E9:r_max=3,4', 'k=1,2']`` -> per-experiment grid dicts."""
    grids: dict[str, dict] = {eid: {} for eid in ids}
    for spec in specs:
        head, _, values = spec.partition("=")
        if not values:
            raise SystemExit(
                f"--param needs the form [EXP:]key=v1,v2 (got {spec!r})"
            )
        exp, _, key = head.rpartition(":")
        targets = [exp] if exp else ids
        parsed = [_parse_value(v) for v in values.split(",")]
        for eid in targets:
            if eid not in grids:
                raise SystemExit(
                    f"--param {spec!r} names {eid!r}, which is not in the "
                    f"selected experiments {ids}"
                )
            grids[eid][key] = parsed
    return grids


def _build_specs(args) -> list:
    """Expand the ``ids``/``--param``/``--seeds`` grammar into job
    specs."""
    from repro.experiments import list_experiments
    from repro.runner import expand_grid, experiment_accepts_seed

    ids = args.ids or list_experiments()
    grids = _parse_param_specs(args.param, ids)
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds else None
    )
    specs = []
    for eid in ids:
        fan = seeds if (seeds and experiment_accepts_seed(eid)) else None
        specs.extend(expand_grid(eid, grids.get(eid), seeds=fan))
    return specs


def _emit_json_line(command: str, summary: dict) -> None:
    """The one machine-readable line ``--json`` promises (last line of
    output, parseable with ``tail -n1 | json.loads``)."""
    import json

    print(json.dumps({"command": command, **summary}, sort_keys=True))


def _cmd_sweep(args) -> int:
    import time
    from pathlib import Path

    from repro.runner import (
        EventLog,
        ResultStore,
        render_sweep,
        run_sweep,
        sweep_ok,
    )

    t0 = time.monotonic()
    specs = _build_specs(args)
    store = ResultStore(args.cache_dir)
    events_path = args.events or str(Path(args.cache_dir) / "events.jsonl")

    _begin_trace(args)
    with EventLog(events_path) as events:
        outcomes = run_sweep(
            specs,
            store,
            workers=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            fresh=args.fresh,
            events=events,
            profile=bool(args.trace_out),
        )
    print(render_sweep(outcomes, show_results=not args.quiet))
    print(f"cache: {args.cache_dir}  events: {events_path}")
    _end_trace(args, "sweep")
    code = 0 if sweep_ok(outcomes) else 1
    if args.json_line:
        _emit_json_line("sweep", {
            "jobs": len(outcomes),
            "hits": sum(1 for o in outcomes if o.cached),
            "failures": sum(1 for o in outcomes if not o.ok),
            "wall_s": round(time.monotonic() - t0, 6),
            "exit_code": code,
        })
    return code


def _cmd_perf(args) -> int:
    from repro.telemetry.baseline import run_perf

    return run_perf(
        args.ids or None,
        repeats=args.repeats,
        root=args.bench_dir,
        compare=args.compare,
        threshold=args.threshold,
        trace_out=args.trace_out,
        json_out=args.json_out,
    )


def _cmd_tune(args) -> int:
    import time

    from repro.autotune import (
        AutoTuner,
        LocalEvaluator,
        PoolEvaluator,
        TuneConfig,
    )
    from repro.errors import ReproError

    t0 = time.monotonic()
    config = TuneConfig(
        alg=args.alg,
        r=args.r,
        cache_size=args.cache_size,
        policy=args.policy,
        strategy=args.strategy,
        budget=args.budget,
        generation=args.generation,
        seed=args.seed,
    )

    _begin_trace(args)
    try:
        if args.local:
            from repro.cdag import build_cdag

            evaluator = LocalEvaluator(
                build_cdag(by_name(args.alg), args.r),
                args.cache_size, args.policy,
            )
        else:
            from repro.runner import ResultStore

            evaluator = PoolEvaluator(
                args.alg, args.r, args.cache_size, args.policy,
                store=ResultStore(args.cache_dir),
                workers=args.jobs,
                fresh=args.fresh,
            )
        result = AutoTuner(config, evaluator).run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
        if args.json_line:
            _emit_json_line("tune", {
                "error": str(exc),
                "wall_s": round(time.monotonic() - t0, 6),
                "exit_code": code,
            })
        return code

    wall = time.monotonic() - t0
    s = result.summary()
    n = by_name(args.alg).n0**args.r
    table = TextTable(
        ["quantity", "value"],
        title=(
            f"tune {args.alg} r={args.r} (n={n}) M={args.cache_size} "
            f"{args.policy} [{args.strategy}]"
        ),
    )
    table.add_row(["start I/O", s["start_io"]])
    table.add_row(["best I/O", s["best_io"]])
    table.add_row(["Theorem-1 bound", s["lower"]])
    table.add_row(["Belady gap", s["best_gap"]])
    table.add_row(["improvement", f"{100 * s['improvement']:.2f}%"])
    table.add_row(["evaluations", s["evaluations"]])
    table.add_row(["cache hits", s["cache_hits"]])
    table.add_row(["failures", s["failures"]])
    table.add_row(["generations", s["generations"]])
    print(table.render())
    print(f"searched in {wall:.2f}s")
    _end_trace(args, "tune")
    if args.json_line:
        _emit_json_line("tune", {
            **s,
            "wall_s": round(wall, 6),
            "exit_code": 0,
        })
    return 0


def _cmd_render(args) -> int:
    from repro.cdag import ascii_ranks, build_cdag, to_dot

    alg = by_name(args.alg)
    g = build_cdag(alg, args.r)
    print(to_dot(g) if args.format == "dot" else ascii_ranks(g))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return _cmd_catalog()
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "caps":
        return _cmd_caps(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "render":
        return _cmd_render(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
