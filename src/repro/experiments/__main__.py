"""Run all (or selected) experiments and print their reports.

Usage::

    python -m repro.experiments                # run everything, serially
    python -m repro.experiments E4 E9          # run selected
    python -m repro.experiments --list         # list ids and exit

Exits nonzero when any experiment's paper-claim check fails, so CI can
gate on the reproduction.  To run experiments in parallel with an
on-disk result cache, use ``python -m repro sweep --jobs N``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import get_experiment, list_experiments


def _describe(experiment_id: str) -> str:
    """First docstring line of the experiment's module."""
    fn = get_experiment(experiment_id)
    doc = sys.modules.get(fn.__module__, None)
    doc = (doc.__doc__ or "") if doc is not None else ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Run the reproduction experiments (E1..E14).",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default all)")
    parser.add_argument(
        "--list", action="store_true", dest="list_only",
        help="list registered experiment ids and exit",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect telemetry spans and counters during the run",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write collected spans as a Chrome trace_event JSON "
             "(implies --profile)",
    )
    args = parser.parse_args(argv)

    if args.list_only:
        for experiment_id in list_experiments():
            print(f"{experiment_id:5s} {_describe(experiment_id)}")
        return 0

    ids = args.ids or list_experiments()

    profiled = bool(args.profile or args.trace_out)
    if profiled:
        from repro import telemetry

        telemetry.enable()

    failures = []
    for experiment_id in ids:
        result = get_experiment(experiment_id)()
        print(result.render())
        print()
        if not result.all_checks_pass:
            failures.append(experiment_id)
    if profiled:
        spans = telemetry.collected_spans()
        if args.trace_out:
            telemetry.write_chrome_trace(
                args.trace_out, spans, metadata={"command": "experiments"}
            )
            print(f"trace: {args.trace_out} ({len(spans)} spans)")
        else:
            print(f"telemetry: {len(spans)} spans collected")
    if failures:
        print(f"FAILED experiments: {failures}")
        return 1
    print(f"All {len(ids)} experiments reproduced.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
