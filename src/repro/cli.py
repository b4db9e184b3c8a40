"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``catalog``               — list the algorithm catalog with parameters;
- ``bounds``                — evaluate Theorem 1 (and baselines) at (n, M, P);
- ``simulate``              — pebble-game I/O of a schedule on G_r;
- ``route``                 — build and verify a Theorem-2 certificate;
- ``caps``                  — simulate parallel bandwidth for (n, P, M);
- ``experiments``           — run the reproduction experiments;
- ``sweep``                 — parallel experiment sweep with an on-disk
  result cache and per-job timeouts; each job runs once, and rerunning
  the sweep (after a failure or a kill) serves every finished job from
  the cache;
- ``perf``                  — record or compare ``BENCH_<exp>.json``
  perf baselines (``--compare`` exits nonzero on regression);
- ``tune``                  — in-process simulated annealing over product
  orders, minimising the Belady gap; a fixed seed replays its
  trajectory, so a killed search is simply rerun (see
  :mod:`repro.autotune`);
- ``render``                — DOT/ASCII rendering of a base graph.

``sweep`` and ``tune`` accept ``--json``: after the human-readable
output, one final machine-readable JSON line with the counts and wall
time.  Their exit codes: **0** — every job reached a successful
terminal state (for ``tune``: the search completed, improved or not);
**1** — at least one job failed (for ``tune``: the search raised, e.g.
a cache too small to execute the graph); **2** — a usage error, as
argparse's own: an unknown ``--alg`` (every command that takes one),
an unknown experiment id (``experiments``, ``sweep``, ``perf``), a
malformed ``sweep --param``/``--seeds``, a ``--param`` key the
experiment does not take, a ``sweep --jobs`` below 1 or ``--timeout``
that is not a finite positive number, a ``perf --repeats`` below 1,
``--threshold`` that is not a finite number above 0 or ``--bench-dir``
that is not a directory, or for ``tune`` any argument its
configuration or graph rejects.  A usage error prints ``error: ...``,
starts no job and, under ``--json``, still ends with the JSON line.

``route``, ``experiments``, ``sweep``, ``perf`` and ``tune`` accept
``--trace-out PATH``: collect telemetry during the command and write its
spans as a Chrome ``trace_event`` file loadable in
``chrome://tracing``/Perfetto; collection is restored to its prior state
when the command ends.
``python -m repro.experiments`` is ``experiments`` under another name.

Everything the CLI prints is computed by the same public API the tests
exercise; the CLI adds no logic of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.bilinear import by_name, list_catalog
from repro.bilinear.compose import named_compositions
from repro.telemetry.baseline import DEFAULT_PERF_IDS
from repro.utils.tables import TextTable

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """An argument names nothing the program has, or a value its
    target rejects: ``main`` prints ``error: ...`` and exits 2, as
    argparse does for the arguments it checks itself."""


def _algorithm(name: str):
    """The catalog algorithm ``--alg`` names; an unknown name is a
    usage error."""
    try:
        return by_name(name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _experiment(experiment_id: str):
    """The registered experiment an id names; an unknown id is a usage
    error."""
    from repro.experiments import get_experiment

    try:
        return get_experiment(experiment_id)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _add_trace_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="collect telemetry spans and counters during the run and "
             "write the spans here as a Chrome trace_event JSON",
    )


@contextlib.contextmanager
def _traced(args, command: str):
    """Collect telemetry over the block when ``--trace-out`` asks for it
    and write the block's spans there as a Chrome trace.  Whether the
    block succeeds or raises, telemetry is left as it was: on or off,
    holding the spans it held before."""
    if not args.trace_out:
        yield
        return
    from repro import telemetry

    was_enabled = telemetry.enabled()
    earlier = telemetry.drain_spans()
    telemetry.enable()
    try:
        yield
        spans = telemetry.collected_spans()
        telemetry.write_chrome_trace(
            args.trace_out, spans, metadata={"command": command}
        )
        print(f"trace: {args.trace_out} ({len(spans)} spans)")
    finally:
        if not was_enabled:
            telemetry.disable()
        telemetry.reset_spans()
        telemetry.ingest_spans(earlier)


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
        help="run experiments in parallel, each job once, with caching",
        description=(
            "Expand experiment ids (optionally with parameter grids and "
            "seeds) into jobs, run each once in its own process, cache "
            "every artifact on disk, and aggregate the results.  Re-running "
            "an identical sweep is served from the cache, so a failed or "
            "interrupted sweep, run again, computes only what did not finish."
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
        "--json-out", default=None, metavar="PATH",
        help="also write combined spans+metrics JSON",
    )
    _add_trace_out(p_perf)

    p_tune = sub.add_parser(
        "tune",
        help="schedule search that closes the Belady gap",
        description=(
            "Anneal demand-driven product orders, in-process, for "
            "schedules whose measured I/O under offline-MIN eviction "
            "approaches the Theorem-1 bound (the Belady gap is the "
            "objective).  A fixed seed replays the same trajectory, so "
            "a killed search is simply rerun.  Exit codes: 0 — search "
            "completed (improved or not); 1 — search failed (e.g. the "
            "cache is too small to execute the graph); 2 — usage error "
            "(an unknown --alg, or an argument the configuration or "
            "the graph rejects)."
        ),
    )
    p_tune.add_argument("--alg", default="strassen")
    p_tune.add_argument("--r", type=int, default=3)
    p_tune.add_argument(
        "--M", type=int, default=24, dest="cache_size",
        help="cache size for the objective (default 24)",
    )
    p_tune.add_argument(
        "--budget", type=int, default=64, metavar="N",
        help="candidate proposals to spend; repeats answered from the "
             "ledger charge it too (default 64)",
    )
    p_tune.add_argument(
        "--generation", type=int, default=8, metavar="K",
        help="proposals per generation (default 8)",
    )
    p_tune.add_argument("--seed", type=int, default=None)
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

    alg = _algorithm(args.alg)
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

    alg = _algorithm(args.alg)
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

    alg = _algorithm(args.alg)
    with _traced(args, "route"):
        cert = theorem2_certificate(alg, args.k)
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

    alg = _algorithm(args.alg)
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
    from repro.experiments import list_experiments

    if args.list_only:
        for experiment_id in list_experiments():
            print(f"{experiment_id:5s} {_describe(experiment_id)}")
        return 0

    ids = args.ids or list_experiments()
    runs = [_experiment(experiment_id) for experiment_id in ids]
    failures = []
    with _traced(args, "experiments"):
        for experiment_id, run in zip(ids, runs):
            result = run()
            print(result.render())
            print()
            if not result.all_checks_pass:
                failures.append(experiment_id)
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
            raise _UsageError(
                f"--param needs the form [EXP:]key=v1,v2 (got {spec!r})"
            )
        exp, _, key = head.rpartition(":")
        targets = [exp] if exp else ids
        parsed = [_parse_value(v) for v in values.split(",")]
        for eid in targets:
            if eid not in grids:
                raise _UsageError(
                    f"--param {spec!r} names {eid!r}, which is not in the "
                    f"selected experiments {ids}"
                )
            grids[eid][key] = parsed
    return grids


def _build_specs(args) -> list:
    """Expand the ``ids``/``--param``/``--seeds`` grammar into job
    specs.  Anything no job could run is a usage error, raised before
    any job starts."""
    import inspect

    from repro.experiments import list_experiments
    from repro.runner import expand_grid, experiment_accepts_seed

    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1 (got {args.jobs})")
    if args.timeout is not None and not 0 < args.timeout < float("inf"):
        raise _UsageError(
            "--timeout must be a finite positive number of seconds "
            f"(got {args.timeout:g})"
        )
    ids = args.ids or list_experiments()
    runs = {eid: _experiment(eid) for eid in ids}
    grids = _parse_param_specs(args.param, ids)
    for eid, grid in grids.items():
        signature = inspect.signature(runs[eid])
        for key in grid:
            try:
                signature.bind_partial(**{key: None})
            except TypeError:
                raise _UsageError(
                    f"--param: experiment {eid} takes no parameter {key!r}"
                ) from None
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    except ValueError:
        raise _UsageError(
            f"--seeds needs comma-separated integers (got {args.seeds!r})"
        ) from None
    specs = []
    for eid in ids:
        fan = seeds if (seeds and experiment_accepts_seed(eid)) else None
        specs.extend(expand_grid(eid, grids[eid], seeds=fan))
    return specs


def _emit_json_line(command: str, summary: dict) -> None:
    """The one machine-readable line ``--json`` promises (last line of
    output, parseable with ``tail -n1 | json.loads``)."""
    import json

    print(json.dumps({"command": command, **summary}, sort_keys=True))


def _report_error(args, command: str, exc: Exception, code: int, t0: float) -> int:
    """Print ``error: ...`` for an error that ends ``command`` and, under
    ``--json``, the JSON line that carries it; returns ``code``."""
    print(f"error: {exc}", file=sys.stderr)
    if args.json_line:
        _emit_json_line(command, {
            "error": str(exc),
            "wall_s": round(time.monotonic() - t0, 6),
            "exit_code": code,
        })
    return code


def _cmd_sweep(args) -> int:
    from repro.runner import ResultStore, render_sweep, run_sweep, sweep_ok

    t0 = time.monotonic()
    try:
        specs = _build_specs(args)
    except _UsageError as exc:
        return _report_error(args, "sweep", exc, 2, t0)
    store = ResultStore(args.cache_dir)

    with _traced(args, "sweep"):
        outcomes = run_sweep(
            specs,
            store,
            workers=args.jobs,
            timeout=args.timeout,
            fresh=args.fresh,
            profile=bool(args.trace_out),
        )
    print(render_sweep(outcomes, show_results=not args.quiet))
    print(f"cache: {args.cache_dir}")
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
    from repro.telemetry.baseline import check_perf_args, run_perf

    for experiment_id in args.ids:
        _experiment(experiment_id)
    try:
        check_perf_args(args.repeats, args.threshold, args.bench_dir)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _traced(args, "perf"):
        return run_perf(
            args.ids or None,
            repeats=args.repeats,
            root=args.bench_dir,
            compare=args.compare,
            threshold=args.threshold,
            json_out=args.json_out,
        )


def _cmd_tune(args) -> int:
    from repro.autotune import AutoTuner, TuneConfig
    from repro.cdag import build_cdag
    from repro.errors import ReproError

    t0 = time.monotonic()
    try:
        with _traced(args, "tune"):
            # Everything the search is given comes from the arguments,
            # so an error building it is a usage error.
            try:
                alg = _algorithm(args.alg)
                config = TuneConfig(
                    cache_size=args.cache_size,
                    budget=args.budget,
                    generation=args.generation,
                    seed=args.seed,
                )
                cdag = build_cdag(alg, args.r)
            except (ValueError, ReproError) as exc:
                raise _UsageError(str(exc)) from exc
            result = AutoTuner(config, cdag).run()
            wall = time.monotonic() - t0
    except (_UsageError, ReproError) as exc:
        code = 2 if isinstance(exc, _UsageError) else 1
        return _report_error(args, "tune", exc, code, t0)

    s = result.summary()
    n = alg.n0**args.r
    table = TextTable(
        ["quantity", "value"],
        title=(
            f"tune {args.alg} r={args.r} (n={n}) M={args.cache_size} belady"
        ),
    )
    table.add_row(["start I/O", s["start_io"]])
    table.add_row(["best I/O", s["best_io"]])
    table.add_row(["Theorem-1 bound", s["lower"]])
    table.add_row(["Belady gap", s["best_gap"]])
    table.add_row(["improvement", f"{100 * s['improvement']:.2f}%"])
    table.add_row(["evaluations", s["evaluations"]])
    table.add_row(["cache hits", s["cache_hits"]])
    table.add_row(["generations", s["generations"]])
    print(table.render())
    print(f"searched in {wall:.2f}s")
    if args.json_line:
        _emit_json_line("tune", {
            **s,
            "wall_s": round(wall, 6),
            "exit_code": 0,
        })
    return 0


def _cmd_render(args) -> int:
    from repro.cdag import ascii_ranks, build_cdag, to_dot

    alg = _algorithm(args.alg)
    g = build_cdag(alg, args.r)
    print(to_dot(g) if args.format == "dot" else ascii_ranks(g))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
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
