"""The counter registry.  A sweep ingests its jobs' counter shards in
whatever order the jobs finish, so ingesting must not depend on that
order; hypothesis property tests check it over integer counters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    Counter,
    MetricsRegistry,
    metrics,
    reset_metrics,
)

_NAMES = ("alpha", "beta", "gamma")
_INTS = st.integers(min_value=-(10**6), max_value=10**6)

# One registry = a short random program of counter updates.
_OPS = st.lists(st.tuples(st.sampled_from(_NAMES), _INTS), max_size=12)


def _build(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name, value in ops:
        reg.counter(name).inc(value)
    return reg


registries = st.builds(_build, _OPS)


def _ingested(*shards) -> dict:
    """The state of a fresh registry after ingesting ``shards`` in
    order."""
    reg = MetricsRegistry()
    for shard in shards:
        reg.ingest(shard.as_dict())
    return reg.as_dict()


@settings(max_examples=200, deadline=None)
@given(a=registries, b=registries)
def test_merge_is_commutative(a, b):
    assert _ingested(a, b) == _ingested(b, a)


@settings(max_examples=200, deadline=None)
@given(a=registries, b=registries, c=registries)
def test_merge_is_associative(a, b, c):
    bc = MetricsRegistry()
    bc.ingest(b.as_dict())
    bc.ingest(c.as_dict())
    assert _ingested(a, b, c) == _ingested(a, bc)


@settings(max_examples=100, deadline=None)
@given(a=registries)
def test_empty_registry_is_identity(a):
    empty = MetricsRegistry()
    assert _ingested(a, empty) == a.as_dict()
    assert _ingested(empty, a) == a.as_dict()


@settings(max_examples=100, deadline=None)
@given(a=registries)
def test_serialisation_round_trip(a):
    assert _ingested(a) == a.as_dict()


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(registries, max_size=4))
def test_sum_and_merge_all_agree(shards):
    totals: dict = {}
    for shard in shards:
        for name in shard.names():
            totals[name] = totals.get(name, 0) + shard.get(name).value
    merged = _ingested(*shards)
    assert {name: doc["value"] for name, doc in merged.items()} == totals
    assert _ingested(*reversed(shards)) == merged


def test_counter_semantics():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.as_dict() == {"type": "counter", "value": 5}


def test_ingest_merges_in_place():
    reg = MetricsRegistry()
    reg.counter("hits").inc(2)
    shard = MetricsRegistry()
    shard.counter("hits").inc(3)
    shard.counter("depth").inc(4)
    reg.ingest(shard.as_dict())
    assert reg.counter("hits").value == 5
    assert reg.counter("depth").value == 4


def test_global_registry_reset():
    metrics().inc("global.thing")
    assert "global.thing" in metrics()
    reset_metrics()
    assert len(metrics()) == 0
