"""One benchmark repeat in a fresh process.

    python benchsuite/child.py WORKLOAD --seed N [--smoke] [--trace] [--setup-only]

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src`` and a scrubbed environment.  Protocol: one JSON object per line
on stdout — a ``ready`` line once interpreter start, the imports and
``simcore.active_mode()`` are done (the parent times set-up up to it),
then one result line.  Anything the program prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _send(stream, doc) -> None:
    stream.write(json.dumps(doc) + "\n")
    stream.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import numpy
    import scipy

    import layers
    import workloads
    from repro import simcore, telemetry

    fingerprint = {
        "nproc": os.cpu_count(),
        "numba": simcore.HAVE_NUMBA,
        "simcore_mode": simcore.active_mode(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    _send(proto, {"ready": True, "fingerprint": fingerprint})
    if args.setup_only:
        return 0

    ctx = layers.Context(traced=args.trace)
    missing = []
    if args.trace:
        missing = layers.install_wraps(ctx)
        telemetry.enable()
    crashed = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with telemetry.span("workload", site="bench", workload=args.workload):
            workloads.WORKLOADS[args.workload](ctx, args.seed, args.smoke)
    except Exception as exc:  # reported; the ops it skipped count as failed
        traceback.print_exc()
        crashed = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    telemetry.disable()

    result = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024,
        "outputs": ctx.outputs,
        "errors": ctx.errors,
        "seeded": ctx.seeded,
        "crashed": crashed,
    }
    if args.trace:
        spans = telemetry.collected_spans()
        result["layers"] = layers.layer_metrics(spans, ctx, telemetry.metrics())
        result["missing"] = layers.missing_metrics(missing)
        result["selftime"] = layers.self_times(spans)
        result["trace_events"] = telemetry.spans_to_chrome_trace(spans)["traceEvents"]
    _send(proto, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
