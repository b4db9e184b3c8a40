"""Tests for the segment-counting machinery (Definition 1, Eqs. 1-2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bilinear import strassen, winograd
from repro.cdag import build_cdag, compute_metavertices
from repro.errors import PartitionError
from repro.pebbling import (
    CacheExecutor,
    SegmentAnalysis,
    boundary_sets,
    counted_mask_section5,
    counted_mask_section6,
    meta_boundary,
    min_cache_size,
    partition_schedule,
)
from repro.schedules import (
    rank_order_schedule,
    random_topological_schedule,
    recursive_schedule,
)
from tests.bounds._reference import reference_boundary_sets
from tests.pebbling._reference import reference_partition_schedule


@pytest.fixture(scope="module")
def g3():
    return build_cdag(strassen(), 3)


@pytest.fixture(scope="module")
def meta3(g3):
    return compute_metavertices(g3)


class TestBoundarySets:
    def test_single_product(self, g3):
        v = int(g3.products()[0])
        r_set, w_set = boundary_sets(g3, np.array([v]))
        # R(S): the product's two encoder-top predecessors.
        assert set(r_set.tolist()) == set(g3.predecessors(v).tolist())
        # W(S): the product itself (it feeds decoder vertices outside S).
        assert w_set.tolist() == [v]

    def test_disjoint_r_w(self, g3):
        segment = g3.products()[:10]
        r_set, w_set = boundary_sets(g3, segment)
        assert not (set(r_set.tolist()) & set(w_set.tolist()))

    def test_whole_graph_boundary(self, g3):
        everything = np.arange(g3.n_vertices)
        r_set, w_set = boundary_sets(g3, everything)
        assert len(r_set) == 0
        assert len(w_set) == 0

    def test_r_outside_w_inside(self, g3):
        segment = g3.products()[:5]
        sset = set(segment.tolist())
        r_set, w_set = boundary_sets(g3, segment)
        assert all(v not in sset for v in r_set.tolist())
        assert all(v in sset for v in w_set.tolist())


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_vertex_loop(self, g3, meta3, data):
        """Random subsets, schedule slices and their meta-closures (what
        SegmentAnalysis measures) give the reference loop's sets."""
        n = g3.n_vertices
        if data.draw(st.booleans()):
            segment = np.array(
                data.draw(st.lists(st.integers(0, n - 1), max_size=300)), dtype=np.int64
            )
        else:
            sched = recursive_schedule(g3)
            start = data.draw(st.integers(0, len(sched) - 1))
            segment = sched[start : start + data.draw(st.integers(1, 400))]
        if data.draw(st.booleans()):
            segment = meta3.closure(segment)
        for got, want in zip(
            boundary_sets(g3, segment), reference_boundary_sets(g3, segment)
        ):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestMetaBoundary:
    def test_includes_closure_neighbors(self, g3, meta3):
        v = int(g3.products()[0])
        mb = meta_boundary(g3, meta3, np.array([v]))
        # The product's predecessors' metas must appear.
        pred_metas = {int(meta3.label[p]) for p in g3.predecessors(v)}
        assert pred_metas <= set(mb.tolist())

    def test_inside_metas_are_writes(self, g3, meta3):
        """Definition 1 on metas: the inside part of δ'(S') is the metas
        of W(S'), the outside part the metas of R(S')."""
        segment = g3.products()[:20]
        mb = meta_boundary(g3, meta3, segment)
        closed = meta3.closure(segment)
        r_set, w_set = boundary_sets(g3, closed)
        inside = np.isin(mb, meta3.label[closed])
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(mb[inside], np.unique(meta3.label[w_set]))
        np.testing.assert_array_equal(mb[~inside], np.unique(meta3.label[r_set]))


class TestCountedMasks:
    def test_section5_mask_size(self, g3):
        k = 1
        mask = counted_mask_section5(g3, k)
        assert mask.sum() == 4**k * 7 ** (g3.r - k)

    def test_section6_mask_size_strassen(self, g3, meta3):
        k = 1
        mask, family = counted_mask_section6(g3, k, meta3)
        # Strassen: all 49 copies are input-disjoint; counted vertices =
        # 3 a^k per copy.
        assert len(family) == 49
        assert mask.sum() == 3 * 4**k * 49


class TestPartition:
    def test_threshold_met(self, g3, meta3):
        mask = counted_mask_section5(g3, 1)
        sched = recursive_schedule(g3)
        segments = partition_schedule(g3, sched, mask, threshold=50, meta=meta3)
        # All but the last segment must hit the threshold.
        counted_seen = np.zeros(g3.n_vertices, dtype=bool)
        for seg in segments[:-1]:
            closed = meta3.closure(seg)
            fresh = closed[mask[closed] & ~counted_seen[closed]]
            counted_seen[fresh] = True
            assert len(fresh) >= 50

    def test_segments_partition_schedule(self, g3, meta3):
        mask = counted_mask_section5(g3, 1)
        sched = recursive_schedule(g3)
        segments = partition_schedule(g3, sched, mask, threshold=64, meta=meta3)
        recombined = np.concatenate(segments)
        np.testing.assert_array_equal(recombined, sched)

    def test_empty_schedule_raises(self, g3, meta3):
        mask = counted_mask_section5(g3, 1)
        with pytest.raises(PartitionError):
            partition_schedule(g3, np.array([], dtype=np.int64), mask, 10, meta3)

    def test_bad_threshold(self, g3, meta3):
        mask = counted_mask_section5(g3, 1)
        with pytest.raises(ValueError):
            partition_schedule(g3, recursive_schedule(g3), mask, 0, meta3)

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["recursive", "rank", "random"]),
        seed=st.integers(0, 2**16),
        threshold=st.sampled_from([1, 7, 12, 24, 96, 10**6]),
        section=st.sampled_from([5, 6]),
        with_meta=st.booleans(),
    )
    def test_matches_reference_loop(
        self, g3, meta3, family, seed, threshold, section, with_meta
    ):
        sched = {
            "recursive": recursive_schedule,
            "rank": rank_order_schedule,
            "random": lambda g: random_topological_schedule(g, seed=seed),
        }[family](g3)
        if section == 5:
            mask = counted_mask_section5(g3, 1)
        else:
            mask, _ = counted_mask_section6(g3, 1, meta3)
        meta = meta3 if with_meta else None
        got = partition_schedule(g3, sched, mask, threshold, meta=meta)
        want = reference_partition_schedule(g3, sched, mask, threshold, meta=meta)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestSegmentAnalysis:
    def test_eq2_holds_on_schedules(self, g3, meta3):
        """Equation (2): |delta'(S')| >= |S_bar| / 12 on every segment of
        every schedule family (the paper's keystone, measured)."""
        analysis = SegmentAnalysis(
            g3, meta3, cache_size=min_cache_size(g3), k=1, threshold=24
        )
        for sched in (
            recursive_schedule(g3),
            rank_order_schedule(g3),
            random_topological_schedule(g3, seed=5),
        ):
            for rec in analysis.analyze(sched):
                assert rec.satisfies_eq2(), rec

    def test_counted_totals_conserved(self, g3, meta3):
        analysis = SegmentAnalysis(
            g3, meta3, cache_size=min_cache_size(g3), k=1, threshold=24
        )
        records = analysis.analyze(recursive_schedule(g3))
        total_counted = sum(rec.counted for rec in records)
        assert total_counted == int(analysis.counted_mask.sum())

    def test_implied_lower_bound_nonnegative(self, g3, meta3):
        analysis = SegmentAnalysis(
            g3, meta3, cache_size=min_cache_size(g3), k=1, threshold=24
        )
        assert analysis.implied_lower_bound(recursive_schedule(g3)) >= 0

    def test_default_k_too_large_raises(self, g3, meta3):
        # paper k for a=4, M=64: ceil(log_4 4608) = 7 > r = 3.
        with pytest.raises(PartitionError):
            SegmentAnalysis(g3, meta3, cache_size=64)

    def test_implied_bound_below_measured_io(self, g3, meta3):
        """The segment argument's certified I/O never exceeds the
        measured I/O of the run it certifies, at the same executable M
        (soundness of the lower-bound reasoning on this run)."""
        from repro.pebbling import simulate_io

        M = min_cache_size(g3)
        analysis = SegmentAnalysis(g3, meta3, cache_size=M, k=1, threshold=24)
        sched = recursive_schedule(g3)
        certified = analysis.implied_lower_bound(sched)
        measured = simulate_io(g3, sched, M).total
        assert certified <= measured


@pytest.fixture(scope="module", params=[strassen, winograd], ids=["strassen", "winograd"])
def g3_meta(request):
    g = build_cdag(request.param(), 3)
    return g, compute_metavertices(g)


def _assert_certificate_below_runs(g, meta, schedule):
    Ms = range(min_cache_size(g), 13)
    runs = CacheExecutor(g).run_many(schedule, Ms, ("belady", "lru"))
    for M in Ms:
        analysis = SegmentAnalysis(g, meta, cache_size=M, k=1, threshold=24)
        certified = analysis.implied_lower_bound(schedule)
        for policy in ("belady", "lru"):
            measured = runs[(M, policy)].total
            assert certified <= measured, (M, policy, certified, measured)


class TestCertificateIsLowerBound:
    """The segment certificate never exceeds the I/O of the execution it
    certifies, under Belady or LRU at the same M (k = 1, threshold 24)."""

    @pytest.mark.parametrize("family", [recursive_schedule, rank_order_schedule],
                             ids=["recursive", "rank"])
    def test_schedule_families(self, g3_meta, family):
        g, meta = g3_meta
        _assert_certificate_below_runs(g, meta, family(g))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    @example(seed=3)
    def test_random_topological_orders(self, g3_meta, seed):
        g, meta = g3_meta
        _assert_certificate_below_runs(g, meta, random_topological_schedule(g, seed=seed))
