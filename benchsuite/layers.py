"""Benchmark-owned spans around the calls into each layer, and the
per-layer metrics computed from them.

Workloads call the program's public functions through
:meth:`Context.call`, which opens a span named after the layer when the
repeat is traced and calls straight through when it is not.  A traced
repeat also wraps a few functions the program calls internally
(:data:`WRAP_TARGETS`), so e.g. the max-flow inside each dominator cut
gets its own span.  A wrap target that no longer exists is reported as
its metrics missing, never as a crash: the program may rename internals
without editing the benchmark.

Times are self-times: a span's duration minus the durations of its
direct child spans, summed per span name.  Spans the program opens
itself (``pebbling.run``, ``cdag.build``, ``routing.lemma3`` ...) take
part in the same tree.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict

from repro import telemetry

#: (module, attribute, span name) — program internals a traced repeat
#: wraps in benchmark-owned spans.
WRAP_TARGETS = [
    ("repro.schedules.recursive", "demand_driven_schedule", "schedules.demand_driven"),
    ("repro.schedules.random_topo", "demand_driven_schedule", "schedules.demand_driven"),
    ("repro.schedules.blocked", "demand_driven_schedule", "schedules.demand_driven"),
    ("repro.utils.flow", "Dinic.max_flow", "flow.max_flow"),
    ("repro.routing.hall", "capacitated_matching", "flow.matching"),
    ("repro.routing.theorem2", "build_cdag", "cdag.build"),
    ("repro.routing.theorem2", "compute_metavertices", "cdag.metavertices"),
    ("repro.routing.theorem2", "lemma3_routing", "routing.lemma3"),
    ("repro.routing.theorem2", "lemma4_routing", "routing.lemma4"),
    ("repro.routing.theorem2", "verify_routing", "routing.verify"),
    ("repro.routing.lemma4", "chain_usage_counts", "routing.chain_usage"),
]

#: Per-layer metric -> the wrapped span names its value depends on
#: (the metric is missing when one of them could not be wrapped).
DEPENDS_ON_WRAPS = {
    "schedules.demand_driven_s": ("schedules.demand_driven",),
    "schedules.recursive_s": ("schedules.demand_driven",),
    "schedules.random_product_order_s": ("schedules.demand_driven",),
    "schedules.loop_order_s": ("schedules.demand_driven",),
    "flow.max_flow_s": ("flow.max_flow",),
    "flow.graph_build_s": ("flow.max_flow",),
    "flow.matching_s": ("flow.matching",),
    "routing.hall_s": ("flow.matching",),
    "cdag.metavertices_s": ("cdag.metavertices",),
    "routing.lemma3_s": ("routing.lemma3",),
    "routing.lemma4_s": ("routing.lemma4",),
    "routing.verify_s": ("routing.verify",),
    "routing.chain_usage_s": ("routing.chain_usage",),
    "routing.certificate_s": (
        "cdag.build", "cdag.metavertices", "routing.lemma3", "routing.lemma4",
        "routing.verify", "routing.chain_usage",
    ),
}


class Context:
    """What one repeat records: op outputs, op errors, counts."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.seeded: list[str] = []
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (traced repeats only)."""
        if self.traced:
            with telemetry.span(name, site="bench"):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        if name == "cdag.build":
            self.counts["cdag.vertices"] += result.n_vertices
        return result

    def ops(self, keys, fn, seeded: bool = False) -> None:
        """Run ``fn`` now (it returns ``{key: output}`` for ``keys``); if
        it raises, every key counts as a failed op.  ``seeded`` ops have
        no stored oracle value; their outputs must agree across repeats."""
        if seeded:
            self.seeded.extend(keys)
        try:
            self.outputs.update(fn())
        except Exception as exc:  # an op that raises is a failed op
            for key in keys:
                self.errors[key] = f"{type(exc).__name__}: {exc}"

    def op(self, key: str, fn) -> None:
        self.ops([key], lambda: {key: fn()})


def install_wraps(ctx: Context) -> list[str]:
    """Wrap every :data:`WRAP_TARGETS` entry in a span; returns the span
    names whose target no longer exists."""
    missing = []
    for module, attr, name in WRAP_TARGETS:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        setattr(owner, leaf, _spanned(ctx, name, fn))
    return sorted(set(missing))


def _spanned(ctx: Context, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return ctx.call(name, fn, *args, **kwargs)

    return wrapper


def _layer_name(record: dict) -> str:
    """The name a span is accounted under: per-config simulation spans
    by their policy, Hall's matching span under ``routing.hall``."""
    name = record["name"]
    if name == "pebbling.run":
        return f"simcore.{record['attrs'].get('policy')}"
    if name == "routing.hall.base_matching":
        return "routing.hall"
    return name


def self_times(spans) -> dict[str, list]:
    """``{layer name: [calls, self_s]}`` over a list of span records."""
    children_s: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent_id"] is not None:
            children_s[s["parent_id"]] += s["dur"]
    table: dict[str, list] = {}
    for s in spans:
        row = table.setdefault(_layer_name(s), [0, 0.0])
        row[0] += 1
        row[1] += s["dur"] - children_s[s["span_id"]]
    return table


def _outermost(spans, prefix: str) -> list[dict]:
    """Spans under ``prefix`` whose parent is not under it too."""
    by_id = {s["span_id"]: s for s in spans}

    def under(s):
        return _layer_name(s).startswith(prefix)

    return [
        s for s in spans
        if under(s) and not (s["parent_id"] in by_id and under(by_id[s["parent_id"]]))
    ]


def layer_metrics(spans, ctx: Context, registry) -> dict[str, float]:
    """Every per-layer metric except ``telemetry.overhead_s``, which
    needs the untraced repeats too."""
    table = self_times(spans)

    def self_s(name):
        return table.get(name, [0, 0.0])[1]

    def calls(name):
        return table.get(name, [0, 0.0])[0]

    def rss_mb(prefix):
        return sum(s["rss_peak_delta_kib"] for s in _outermost(spans, prefix)) / 1024

    def counter(name):
        metric = registry.get(name)
        return metric.value if metric is not None else 0

    sims = [s for s in spans if s["name"] == "pebbling.run"]
    steps = sum(s["counters"].get("scheduled", 0) for s in sims)
    sim_s = sum(self_s(f"simcore.{p}") for p in ("lru", "fifo", "belady"))
    cert_s = sum(s["dur"] for s in _outermost(spans, "routing.certificate"))
    paths = ctx.counts["routing.paths"]
    return {
        "cdag.build_s": self_s("cdag.build"),
        "cdag.vertices": ctx.counts["cdag.vertices"],
        "cdag.metavertices_s": self_s("cdag.metavertices"),
        "schedules.recursive_s": self_s("schedules.recursive"),
        "schedules.demand_driven_s": self_s("schedules.demand_driven"),
        "schedules.rank_order_s": self_s("schedules.rank_order"),
        "schedules.random_product_order_s": self_s("schedules.random_product_order"),
        "schedules.loop_order_s": self_s("schedules.loop_order"),
        "schedules.rss_delta_mb": rss_mb("schedules."),
        "simcore.plan_s": self_s("simcore.plan"),
        "simcore.plan.rss_delta_mb": rss_mb("simcore.plan"),
        "simcore.run_many_s": self_s("simcore.run_many"),
        "simcore.lru_s": self_s("simcore.lru"),
        "simcore.belady_s": self_s("simcore.belady"),
        "simcore.configs": len(sims),
        "simcore.steps": steps,
        "simcore.steps_per_s": steps / sim_s if sim_s > 0 else 0.0,
        "simcore.run_many.rss_delta_mb": rss_mb("simcore.run_many"),
        "simcore.kernel.fallback": counter("simcore.kernel.fallback"),
        "simcore.kernel.jit": counter("simcore.kernel.jit"),
        "pebbling.partition_s": self_s("pebbling.partition"),
        "pebbling.parts": ctx.counts["pebbling.parts"],
        "pebbling.run.evictions": sum(s["counters"].get("evictions", 0) for s in sims),
        # Inclusive: the split-graph rebuild plus the max-flow it feeds.
        "bounds.dominator_s": self_s("bounds.dominator") + self_s("flow.max_flow"),
        "bounds.dominator_calls": calls("bounds.dominator"),
        "bounds.minimum_set_s": self_s("bounds.minimum_set"),
        "flow.max_flow_s": self_s("flow.max_flow"),
        "flow.graph_build_s": self_s("bounds.dominator"),
        "flow.matching_s": self_s("flow.matching"),
        "routing.certificate_s": self_s("routing.certificate"),
        "routing.lemma3_s": self_s("routing.lemma3"),
        "routing.hall_s": self_s("routing.hall"),
        "routing.lemma4_s": self_s("routing.lemma4"),
        "routing.chain_usage_s": self_s("routing.chain_usage"),
        "routing.verify_s": self_s("routing.verify"),
        "routing.paths": paths,
        "routing.paths_per_s": paths / cert_s if cert_s > 0 else 0.0,
    }


def missing_metrics(missing_spans) -> list[str]:
    """Per-layer metrics whose value is unreliable because a wrap target
    is gone."""
    gone = set(missing_spans)
    return sorted(m for m, deps in DEPENDS_ON_WRAPS.items() if gone & set(deps))
