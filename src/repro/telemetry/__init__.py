"""Zero-dependency instrumentation: spans, metrics, exporters, perf
baselines.

The paper's objects — ``G_k`` construction, Theorem 2's ``6 a^k``
routing assembly, pebble-game execution — dominate wall-clock as ``k``
and ``n`` grow.  This package makes that observable without changing
any result:

- :mod:`repro.telemetry.spans` — nestable timing spans (wall time,
  peak-RSS delta, per-span counters) usable as context manager or
  decorator, thread- and process-safe, with a no-op fast path while
  telemetry is disabled (the default);
- :mod:`repro.telemetry.metrics` — named counters / gauges /
  histograms whose canonical states form a commutative merge monoid,
  so per-worker shards from the sweep pool aggregate cleanly;
- :mod:`repro.telemetry.export` — JSON, Prometheus text format, and
  Chrome ``trace_event`` exporters (open a routing run or an E9 sweep
  directly in ``chrome://tracing`` / Perfetto);
- :mod:`repro.telemetry.baseline` — ``BENCH_<exp>.json`` perf
  snapshots plus ``python -m repro perf --compare`` regression gating.

Quick start::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("my.region", size=64) as sp:
        sp.add("items", 64)
    telemetry.write_chrome_trace("trace.json", telemetry.collected_spans())

Set ``REPRO_TELEMETRY=1`` to enable collection at import time (the CLI
``--profile`` flags do this per command).
"""

from repro.telemetry.baseline import (
    DEFAULT_PERF_IDS,
    bench_filename,
    bench_path,
    compare_docs,
    load_baseline,
    measure_experiment,
    run_perf,
    write_baseline,
)
from repro.telemetry.export import (
    metrics_to_prometheus,
    spans_to_chrome_trace,
    telemetry_to_json,
    write_chrome_trace,
    write_json,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    reset_metrics,
)
from repro.telemetry.spans import (
    NOOP_SPAN,
    add_counter,
    collected_spans,
    current_span,
    disable,
    drain_spans,
    enable,
    enabled,
    ingest_spans,
    reset_spans,
    span,
    traced,
)

__all__ = [
    # spans
    "span",
    "traced",
    "current_span",
    "add_counter",
    "enable",
    "disable",
    "enabled",
    "reset_spans",
    "collected_spans",
    "drain_spans",
    "ingest_spans",
    "NOOP_SPAN",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "reset_metrics",
    # export
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "metrics_to_prometheus",
    "telemetry_to_json",
    "write_json",
    # baselines
    "DEFAULT_PERF_IDS",
    "bench_filename",
    "bench_path",
    "measure_experiment",
    "write_baseline",
    "load_baseline",
    "compare_docs",
    "run_perf",
]


def reset() -> None:
    """Clear collected spans and the global metrics registry."""
    reset_spans()
    reset_metrics()
