"""Tests for Dinic max-flow and the Hong-Kung dominator machinery."""

import numpy as np
import pytest

from repro.bilinear import classical, strassen
from repro.bounds import (
    hong_kung_bound_from_partition,
    minimum_dominator_size,
    minimum_set,
    partition_by_io,
    verify_hk_partition,
)
from repro.cdag import build_base_graph, build_cdag
from repro.schedules import loop_order_schedule, recursive_schedule
from repro.utils.flow import Dinic


class TestDinic:
    def test_simple_network(self):
        d = Dinic(4)
        d.add_edge(0, 1, 2)
        d.add_edge(0, 2, 2)
        d.add_edge(1, 3, 1)
        d.add_edge(2, 3, 3)
        assert d.max_flow(0, 3) == 3

    def test_disconnected(self):
        d = Dinic(3)
        d.add_edge(0, 1, 5)
        assert d.max_flow(0, 2) == 0

    def test_bottleneck(self):
        d = Dinic(5)
        d.add_edge(0, 1, 10)
        d.add_edge(1, 2, 1)
        d.add_edge(2, 3, 10)
        d.add_edge(0, 4, 10)
        d.add_edge(4, 2, 10)
        assert d.max_flow(0, 3) == 10  # capped by edge 2->3

    def test_min_cut_source_side(self):
        d = Dinic(4)
        d.add_edge(0, 1, 1)
        d.add_edge(1, 2, 5)
        d.add_edge(2, 3, 5)
        d.max_flow(0, 3)
        assert d.min_cut_source_side(0) == [0]

    def test_same_source_sink_raises(self):
        with pytest.raises(ValueError):
            Dinic(2).max_flow(0, 0)

    def test_bad_edge_raises(self):
        d = Dinic(2)
        with pytest.raises(ValueError):
            d.add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            d.add_edge(0, 1, -1)

    def test_matches_networkx_on_random_graphs(self):
        import networkx as nx

        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            g = nx.gnp_random_graph(n, float(rng.uniform(0.1, 0.6)),
                                    seed=int(rng.integers(1e6)),
                                    directed=True)
            d = Dinic(n)
            for u, v in g.edges:
                cap = int(rng.integers(1, 6))
                g[u][v]["capacity"] = cap
                d.add_edge(u, v, cap)
            expected = nx.maximum_flow_value(g, 0, n - 1)
            assert d.max_flow(0, n - 1) == expected

    def test_long_augmenting_path(self):
        """A 5,000-vertex unit chain: one augmenting path of 4,999 edges
        (the recursive search overflowed the stack near 1,000)."""
        n = 5000
        d = Dinic(n)
        for v in range(n - 1):
            d.add_edge(v, v + 1, 1)
        assert d.max_flow(0, n - 1) == 1


class TestDominators:
    def test_single_input_dominates_itself(self):
        g = build_base_graph(strassen())
        v = int(g.inputs()[0])
        assert minimum_dominator_size(g, [v]) == 1

    def test_product_dominated_by_one_vertex(self):
        # One product can be dominated by itself.
        g = build_base_graph(strassen())
        assert minimum_dominator_size(g, [int(g.products()[0])]) == 1

    def test_all_outputs_dominator(self):
        """The outputs of G_r can be dominated by the a^r outputs
        themselves (or anything smaller the cut finds)."""
        g = build_cdag(strassen(), 2)
        dom = minimum_dominator_size(g, g.outputs())
        assert 0 < dom <= len(g.outputs())

    def test_empty_targets(self):
        g = build_base_graph(strassen())
        assert minimum_dominator_size(g, []) == 0

    def test_dominator_monotone(self):
        g = build_cdag(strassen(), 2)
        few = minimum_dominator_size(g, g.outputs()[:2])
        more = minimum_dominator_size(g, g.outputs())
        assert few <= more


@pytest.mark.parametrize("query", [minimum_dominator_size, minimum_set])
def test_out_of_range_vertex_raises(query):
    g = build_base_graph(strassen())
    n = g.n_vertices
    for bad in ([-1], [n], [n + 1], [0, n]):
        with pytest.raises(ValueError, match="vertex ids"):
            query(g, bad)


class TestMinimumSet:
    def test_outputs_are_their_own_minimum_set(self):
        g = build_base_graph(strassen())
        ms = minimum_set(g, g.outputs())
        np.testing.assert_array_equal(ms, g.outputs())

    def test_chain_minimum_set_is_top(self):
        g = build_cdag(strassen(), 2)
        # A product plus its decoder parent: only the parent survives.
        v = int(g.products()[0])
        parent = int(g.successors(v)[0])
        ms = minimum_set(g, [v, parent])
        assert parent in ms.tolist()


class TestHKPartition:
    def test_partition_covers_schedule(self):
        g = build_cdag(strassen(), 2)
        sched = recursive_schedule(g)
        parts = partition_by_io(g, sched, 8)
        recombined = np.concatenate(parts)
        np.testing.assert_array_equal(recombined, sched)

    def test_hk_envelope_on_classical(self):
        g = build_cdag(classical(2), 2)
        sched = loop_order_schedule(g, "ijk")
        M = 8
        parts = partition_by_io(g, sched, M)
        report = verify_hk_partition(g, parts, M)
        assert report["dominator_ok"]
        assert report["minimum_set_ok"]

    def test_certified_bound_sound(self):
        from repro.pebbling import simulate_io

        g = build_cdag(strassen(), 2)
        sched = recursive_schedule(g)
        M = 8
        parts = partition_by_io(g, sched, M)
        certified = hong_kung_bound_from_partition(len(parts), M)
        assert certified <= simulate_io(g, sched, M).total

    def test_given_executor_reuses_its_plan(self):
        """The executor that measured the schedule partitions it from
        its compiled plan (a hit, no second compile), into the parts a
        fresh executor gives; another graph's executor is refused."""
        from repro.pebbling import CacheExecutor
        from repro.telemetry.metrics import metrics

        def count(name):
            counter = metrics().get(f"pebbling.plan.{name}")
            return 0 if counter is None else counter.value

        g = build_cdag(strassen(), 2)
        sched = recursive_schedule(g)
        executor = CacheExecutor(g)
        executor.run(sched, 8)
        miss, hit = count("miss"), count("hit")
        parts = partition_by_io(g, sched, 8, executor=executor)
        assert (count("miss"), count("hit")) == (miss, hit + 1)
        fresh = partition_by_io(g, sched, 8)
        assert count("miss") == miss + 1
        assert len(parts) == len(fresh)
        for got, want in zip(parts, fresh):
            np.testing.assert_array_equal(got, want)
        other = CacheExecutor(build_cdag(strassen(), 2))
        with pytest.raises(ValueError, match="another CDAG"):
            partition_by_io(g, sched, 8, executor=other)

    def test_bound_formula(self):
        assert hong_kung_bound_from_partition(10, 4) == 36
        assert hong_kung_bound_from_partition(0, 4) == 0

    def test_more_io_more_parts(self):
        """A worse schedule induces more 2M-phases (HK's counting)."""
        from repro.schedules import rank_order_schedule

        g = build_cdag(strassen(), 2)
        M = 8
        good = partition_by_io(g, recursive_schedule(g), M)
        bad = partition_by_io(g, rank_order_schedule(g), M)
        assert len(bad) >= len(good)
