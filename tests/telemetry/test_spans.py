"""Span nesting, the disabled no-op fast path, threading, and the
span -> metrics fold."""

import threading

import pytest

from repro import telemetry
from repro.telemetry.spans import (
    NOOP_SPAN,
    add_counter,
    current_span,
    drain_spans,
    ingest_spans,
    span,
    traced,
)


def test_disabled_returns_shared_noop_singleton():
    assert not telemetry.enabled()
    sp = span("anything", whatever=1)
    assert sp is NOOP_SPAN
    with sp as inner:
        inner.add("x")
        inner.set("y", 3)
        assert inner.span_id is None
    add_counter("x")  # no open span, disabled: must not raise
    assert telemetry.collected_spans() == []
    assert len(telemetry.metrics()) == 0


def test_disabled_decorator_passes_through():
    calls = []

    @traced("t.f")
    def f(x):
        calls.append(x)
        return x * 2

    assert f(21) == 42
    assert calls == [21]
    assert telemetry.collected_spans() == []


def test_nesting_records_parent_ids():
    telemetry.enable()
    with span("outer") as outer:
        assert current_span() is outer
        with span("inner") as inner:
            assert current_span() is inner
            inner.add("items", 3)
            inner.add("items", 2)
    assert current_span() is None
    records = telemetry.collected_spans()
    assert [r["name"] for r in records] == ["inner", "outer"]
    by_name = {r["name"]: r for r in records}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["parent_id"] is None
    assert by_name["inner"]["counters"] == {"items": 5}
    assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0


def test_explicit_cross_process_parent():
    telemetry.enable()
    with span("child", parent="424242.7"):
        pass
    (record,) = telemetry.collected_spans()
    assert record["parent_id"] == "424242.7"


def test_add_counter_targets_innermost_span():
    telemetry.enable()
    with span("outer"):
        with span("inner"):
            add_counter("hits", 4)
    by_name = {r["name"]: r for r in telemetry.collected_spans()}
    assert by_name["inner"]["counters"] == {"hits": 4}
    assert by_name["outer"]["counters"] == {}


def test_traced_default_name_and_attrs():
    telemetry.enable()

    @traced()
    def my_function():
        return 1

    @traced("custom.name", alg="x")
    def other():
        return 2

    my_function()
    other()
    names = [r["name"] for r in telemetry.collected_spans()]
    assert "test_spans.my_function" in names
    assert "custom.name" in names
    by_name = {r["name"]: r for r in telemetry.collected_spans()}
    assert by_name["custom.name"]["attrs"] == {"alg": "x"}


def test_error_is_recorded_and_propagates():
    telemetry.enable()
    with pytest.raises(ValueError):
        with span("failing"):
            raise ValueError("boom")
    (record,) = telemetry.collected_spans()
    assert record["error"] == "ValueError"
    assert current_span() is None  # stack unwound


def test_thread_local_stacks_keep_parents_straight():
    telemetry.enable()
    barrier = threading.Barrier(2)

    def work(tag):
        with span(f"outer.{tag}"):
            barrier.wait(timeout=5)  # both threads hold an open span
            with span(f"inner.{tag}"):
                pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = telemetry.collected_spans()
    assert len(records) == 4
    by_name = {r["name"]: r for r in records}
    for tag in (0, 1):
        inner, outer = by_name[f"inner.{tag}"], by_name[f"outer.{tag}"]
        assert inner["parent_id"] == outer["span_id"]
        assert inner["tid"] == outer["tid"]


def test_drain_and_ingest_round_trip():
    telemetry.enable()
    with span("a"):
        pass
    shipped = drain_spans()
    assert [r["name"] for r in shipped] == ["a"]
    assert telemetry.collected_spans() == []
    assert ingest_spans(shipped) == 1
    assert [r["name"] for r in telemetry.collected_spans()] == ["a"]


def test_span_folds_into_metrics_registry():
    telemetry.enable()
    with span("fold.me") as sp:
        sp.add("widgets", 7)
        sp.set("level", 3)
    with span("fold.me") as sp:
        sp.set("level", 4)
    reg = telemetry.metrics()
    assert reg.counter("fold.me.widgets").value == 7
    # A set counter folds as the sum over spans.
    assert reg.counter("fold.me.level").value == 7
    assert reg.names() == ["fold.me.level", "fold.me.widgets"]


def test_reset_clears_spans_but_not_enabled_flag():
    telemetry.enable()
    with span("x"):
        pass
    telemetry.reset()
    assert telemetry.collected_spans() == []
    assert telemetry.enabled()
