"""Metrics merge algebra: the canonical states form a commutative
monoid, checked by hypothesis property tests over integer observations
(exact equality; floats would only satisfy the laws approximately)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    reset_metrics,
)

_NAMES = ("alpha", "beta", "gamma")
_INTS = st.integers(min_value=-(10**6), max_value=10**6)

# One registry = a short random program of metric updates.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.sampled_from(_NAMES), _INTS),
        st.tuples(st.just("gauge"), st.sampled_from(_NAMES), _INTS),
        st.tuples(st.just("histogram"), st.sampled_from(_NAMES), _INTS),
    ),
    max_size=12,
)


def _build(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for kind, name, value in ops:
        full = f"{kind[0]}.{name}"  # kind-prefixed: no cross-kind clashes
        if kind == "counter":
            reg.counter(full).inc(value)
        elif kind == "gauge":
            reg.gauge(full).set(value)
        else:
            reg.histogram(full).observe(value)
    return reg


registries = st.builds(_build, _OPS)


@settings(max_examples=200, deadline=None)
@given(a=registries, b=registries)
def test_merge_is_commutative(a, b):
    assert a.merge(b).as_dict() == b.merge(a).as_dict()


@settings(max_examples=200, deadline=None)
@given(a=registries, b=registries, c=registries)
def test_merge_is_associative(a, b, c):
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.as_dict() == right.as_dict()


@settings(max_examples=100, deadline=None)
@given(a=registries)
def test_empty_registry_is_identity(a):
    empty = MetricsRegistry()
    assert a.merge(empty).as_dict() == a.as_dict()
    assert empty.merge(a).as_dict() == a.as_dict()


@settings(max_examples=100, deadline=None)
@given(a=registries)
def test_serialisation_round_trip(a):
    assert MetricsRegistry.from_dict(a.as_dict()).as_dict() == a.as_dict()


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(registries, max_size=4))
def test_sum_and_merge_all_agree(shards):
    total = MetricsRegistry.merge_all(shards).as_dict()
    if shards:
        assert sum(shards, 0).as_dict() == total
    assert MetricsRegistry.merge_all(reversed(shards)).as_dict() == total


def test_counter_semantics():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.merge(Counter(10)).value == 15


def test_gauge_summary_and_last_excluded_from_canonical_state():
    g = Gauge()
    g.set(5)
    g.set(2)
    assert (g.count, g.sum, g.min, g.max, g.last) == (2, 7, 2, 5, 2)
    assert g.mean == 3.5
    assert "last" not in g.as_dict()
    other = Gauge()
    other.set(9)
    merged = g.merge(other)
    assert (merged.count, merged.min, merged.max) == (3, 2, 9)
    assert merged.last is None


def test_histogram_buckets_and_bounds():
    h = Histogram()
    for v in (0, 1, 3, 100):
        h.observe(v)
    assert h.count == 4 and h.min == 0 and h.max == 100
    bounds = h.bucket_bounds()
    assert bounds[0][0] == 0.0  # underflow bucket for the 0 observation
    assert sum(n for _, n in bounds) == 4


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    other = MetricsRegistry()
    other.histogram("x").observe(1)
    with pytest.raises(TypeError):
        reg.merge(other)


def test_ingest_merges_in_place():
    reg = MetricsRegistry()
    reg.counter("hits").inc(2)
    shard = MetricsRegistry()
    shard.counter("hits").inc(3)
    shard.gauge("depth").set(4)
    reg.ingest(shard.as_dict())
    assert reg.counter("hits").value == 5
    assert reg.gauge("depth").count == 1


def test_global_registry_reset():
    metrics().inc("global.thing")
    assert "global.thing" in metrics()
    reset_metrics()
    assert len(metrics()) == 0
