"""The stack-distance and interval passes
(:func:`repro.simcore.stack.lru_counts`,
:func:`repro.simcore.stack.belady_counts`).

Their counts must equal the simulation loop's and the golden reference's
at every cache size.  They leave a plan outside their derivation to the
loop, so the executor, which takes every count-only LRU and Belady
configuration from them, fails where the loop fails, with the loop's
error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.bilinear import strassen, winograd
from repro.bilinear.synthetic import with_duplicate_product, with_split_output
from repro.cdag import build_cdag
from repro.errors import CacheError, ScheduleError
from repro.pebbling import CacheExecutor, min_cache_size
from repro.pebbling import executor as executor_module
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.simcore import SchedulePlan
from repro.simcore.pyloops import simulate_py
from repro.simcore import stack as stack_module
from repro.simcore.stack import (
    _greedy,
    _subtract_greater,
    _touches,
    belady_counts,
    lru_counts,
)

from tests.pebbling._reference import reference_run

FAMILIES = {
    "strassen": strassen,
    "winograd": winograd,
    "duplicate-product": lambda: with_duplicate_product(strassen(), product=0),
    "split-output": lambda: with_split_output(winograd(), product=3, scale=4.0),
}

_GRAPHS = {}


def graph(family: str, r: int = 2):
    if (family, r) not in _GRAPHS:
        _GRAPHS[family, r] = build_cdag(FAMILIES[family](), r)
    return _GRAPHS[family, r]


def masks(g):
    is_input = g.in_degree() == 0
    is_output = np.zeros(g.n_vertices, dtype=bool)
    is_output[g.outputs()] = True
    return is_input, is_output


#: The passes, by the policy each one reproduces.
PASSES = {"lru": lru_counts, "belady": belady_counts}


def loop_outcome(plan, is_input, is_output, M, policy="lru"):
    """The loop's count tuple at ``M``, or the exception it raises."""
    try:
        return simulate_py(plan, is_input, is_output, M, policy)
    except (CacheError, ScheduleError) as exc:
        return exc


def counts_of(res):
    """An ``IOResult``'s fields in the loop's count-tuple order (all but
    the evictions)."""
    return (res.reads, res.writes, res.input_reads, res.spill_reads,
            res.spill_writes, res.output_writes, res.peak_cache)


def same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return tuple(got) == tuple(want)


def in_derivation(preds, sched, is_input) -> bool:
    """Distinct non-inputs, each operand an input or computed earlier."""
    done = set()
    for v in sched.tolist():
        if is_input[v] or v in done:
            return False
        if any(not is_input[u] and u not in done for u in preds[v]):
            return False
        done.add(v)
    return True


class _Graph:
    """The two things a plan reads of a CDAG, from predecessor lists."""

    def __init__(self, preds):
        self.n_vertices = len(preds)
        self._indptr = np.cumsum([0] + [len(p) for p in preds]).astype(np.int64)
        self._indices = np.array([u for p in preds for u in p], dtype=np.int64)

    def pred_csr(self):
        return self._indptr, self._indices


#: The smallest cache every schedule of every family runs in.
MIN_M = max(min_cache_size(graph(f)) for f in FAMILIES)


class TestAgreement:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.sampled_from(["topo", "product"]),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.data(),
    )
    def test_every_cache_size_matches_loop_and_reference(
        self, family, kind, seed, data
    ):
        g = graph(family)
        if kind == "topo":
            sched = random_topological_schedule(g, seed=seed)
        else:
            sched = random_product_order_schedule(g, seed=seed)
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, sched, validated=False)
        # From below the widest step to past the distinct count, where
        # nothing is ever evicted, and one size no int32 holds.
        with_sentinel = data.draw(st.lists(
            st.integers(min_value=MIN_M - 1, max_value=g.n_vertices + 8),
            min_size=1, max_size=6,
        )) + [2**31]
        # Single sizes and small sets up to the distinct count, without
        # that size: there LRU settles the touches with at least max(Ms)
        # interior steps without counting them.
        without = data.draw(st.lists(
            st.integers(min_value=MIN_M - 1, max_value=g.n_vertices),
            min_size=1, max_size=3,
        ))
        for Ms in (with_sentinel, without):
            for policy, count in PASSES.items():
                got = count(plan, is_input, is_output, Ms)
                assert len(got) == len(Ms)
                for M, counts in zip(Ms, got):
                    want = loop_outcome(plan, is_input, is_output, M, policy)
                    assert same_outcome(counts, want), (policy, M)
                    if isinstance(counts, CacheError):
                        with pytest.raises(CacheError):
                            reference_run(g, sched, M, policy)
                        continue
                    res, evictions = reference_run(g, sched, M, policy)
                    assert tuple(counts) == (
                        res.reads, res.writes, res.input_reads,
                        res.spill_reads, res.spill_writes, res.output_writes,
                        res.peak_cache, evictions,
                    ), (policy, M)
                ran = sorted((M, c) for M, c in zip(Ms, got)
                             if not isinstance(c, Exception))
                for (_, small), (_, large) in zip(ran, ran[1:]):
                    assert large[0] <= small[0] and large[1] <= small[1]

    @pytest.mark.parametrize("order", ["recursive", "rank"])
    def test_strassen_r4(self, order):
        """16 bit levels of the wavelet matrix, which the r = 2 graphs
        above do not reach."""
        g = build_cdag(strassen(), 4)
        sched = (recursive_schedule(g) if order == "recursive"
                 else rank_order_schedule(g))
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, sched, validated=True)
        Ms = (12, 24, 48, 96)
        for policy, count in PASSES.items():
            assert count(plan, is_input, is_output, Ms) == [
                simulate_py(plan, is_input, is_output, M, policy) for M in Ms
            ]

    def test_strassen_r5_keys_past_int32(self):
        """n = 32, the smallest Strassen graph whose touch keys
        ``step << 17 | vertex`` and ``vertex << 19 | position`` pass
        ``2**31``: both passes still give the loop's counts, pinned."""
        g = build_cdag(strassen(), 5)
        sched = recursive_schedule(g)
        assert len(sched) << g.n_vertices.bit_length() > 2**31
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, sched, validated=True)
        pinned = {
            "lru": (122510, 68270, 6144, 116366, 67246, 1024, 12, 234003),
            "belady": (81160, 47234, 6144, 75016, 46210, 1024, 12, 192653),
        }
        for policy, count in PASSES.items():
            (got,) = count(plan, is_input, is_output, [12])
            assert got == simulate_py(plan, is_input, is_output, 12, policy)
            assert got == pinned[policy], policy

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_dags_and_broken_schedules(self, seed):
        """Small random DAGs with repeated operands, run in order, in a
        random permutation, as a prefix, as any random vertex list, or
        in order with an input scheduled among them: the pass gives the
        loop's counts or CacheError at every M, or leaves exactly the
        schedules outside its derivation to the loop."""
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(1, 6))
        preds = [[] for _ in range(n_in)]
        for v in range(n_in, n_in + int(rng.integers(1, 25))):
            preds.append(rng.integers(0, v, int(rng.integers(1, 5))).tolist())
        g = _Graph(preds)
        n = len(preds)
        is_input = np.arange(n) < n_in
        is_output = (rng.random(n) < 0.3) & ~is_input
        computed = np.arange(n_in, n)
        kind = seed % 5
        sched = [
            computed,
            rng.permutation(computed),
            computed[:int(rng.integers(0, len(computed) + 1))],
            rng.permutation(n)[:int(rng.integers(1, n + 1))],
            np.insert(computed, int(rng.integers(0, len(computed) + 1)),
                      int(rng.integers(0, n_in))),
        ][kind]
        plan = SchedulePlan(g, np.ascontiguousarray(sched, dtype=np.int64),
                            validated=kind == 0)
        Ms = list(range(1, 9))
        valid = in_derivation(preds, plan.schedule, is_input)
        for policy, count in PASSES.items():
            got = count(plan, is_input, is_output, Ms)
            assert (got is None) != valid
            if got is None:
                continue
            for M, outcome in zip(Ms, got):
                want = loop_outcome(plan, is_input, is_output, M, policy)
                assert same_outcome(outcome, want), (M, outcome, want)


class TestInteriorSteps:
    """LRU counts a reuse touch's stack distance only when its interior
    steps leave ``d >= M`` open at some asked ``M``."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.sampled_from(["topo", "product", "prefix"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stack_distance_is_at_least_the_interior_steps(
        self, family, kind, seed
    ):
        """Each reuse touch's stack distance, from Python sets over the
        touch sequence, is at least the number of steps strictly between
        its previous touch's step and its own."""
        g = graph(family)
        if kind == "product":
            sched = random_product_order_schedule(g, seed=seed)
        else:
            sched = random_topological_schedule(g, seed=seed)
        if kind == "prefix":
            sched = sched[:1 + seed % len(sched)]
        indptr, indices = g.pred_csr()
        touches = []
        for t, v in enumerate(sched.tolist()):
            ops = set(indices[indptr[v]:indptr[v + 1]].tolist())
            touches.extend((t, x) for x in sorted(ops | {v}))
        last, first_of_step, reuses = {}, {}, 0
        for j, (t, x) in enumerate(touches):
            B = first_of_step.setdefault(t, j)
            if x in last:
                P = last[x]
                d = len({y for _, y in touches[P + 1:B]})
                assert d >= t - touches[P][0] - 1, (j, x)
                reuses += 1
            last[x] = j
        assert reuses or kind == "prefix"

    def test_only_open_touches_reach_the_dominance_count(self, monkeypatch):
        """Strassen r = 4, recursive, M = 12: 16,989 reuse touches have a
        gap of at least 12, and at most 4,702 of them have fewer than 12
        interior steps.  Only those reach the dominance count, and the
        counts stay the loop's."""
        g = build_cdag(strassen(), 4)
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, recursive_schedule(g), validated=True)
        _, prev, starts = _touches(plan, is_input)
        step = np.repeat(np.arange(plan.n_steps), np.diff(starts))
        reuse = np.flatnonzero(prev >= 0)
        gap = starts[step[reuse]] - prev[reuse] - 1
        assert np.count_nonzero(gap >= 12) == 16989
        queries = []

        def counted(values, y, hi, d):
            queries.append(len(y))
            return _subtract_greater(values, y, hi, d)

        monkeypatch.setattr(stack_module, "_subtract_greater", counted)
        assert lru_counts(plan, is_input, is_output, [12]) == [
            simulate_py(plan, is_input, is_output, 12, "lru")
        ]
        assert len(queries) == 1 and queries[0] <= 4702


class TestErrors:
    def test_reversed_schedule_raises_the_loops_schedule_error(self):
        g = graph("strassen")
        is_input, is_output = masks(g)
        reversed_sched = recursive_schedule(g)[::-1].copy()
        plan = SchedulePlan(g, reversed_sched, validated=False)
        for policy, count in PASSES.items():
            assert count(plan, is_input, is_output, [12]) is None
            with pytest.raises(ScheduleError) as loop_err:
                simulate_py(plan, is_input, is_output, 12, policy)
            with pytest.raises(ScheduleError) as executor_err:
                CacheExecutor(g).run(reversed_sched, 12, policy,
                                     validate=False)
            assert same_outcome(executor_err.value, loop_err.value)

    def test_cache_error_for_the_narrow_configuration_only(self):
        g = graph("strassen")
        is_input, is_output = masks(g)
        plan = SchedulePlan(g, recursive_schedule(g), validated=True)
        w = min_cache_size(g)
        for policy, count in PASSES.items():
            narrow, wide = count(plan, is_input, is_output, [w - 1, w])
            assert isinstance(narrow, CacheError)
            assert wide == simulate_py(plan, is_input, is_output, w, policy)

    def test_pinned_operands_fail_before_a_missing_one(self):
        """Vertex 5 reads 3, 4, 2, 0 and the not yet computed 6.  At
        M = 3 the cache holds 3 and 4 when step 2 starts, so loading 2
        and then 0 finds every cached value pinned: CacheError before
        the missing operand's ScheduleError (M >= 4).  The passes leave
        the plan to the loop, which raises at every M."""
        g = _Graph([[], [], [], [0], [1], [3, 4, 2, 0, 6], [0]])
        is_input = np.array([1, 1, 1, 0, 0, 0, 0], dtype=bool)
        is_output = np.array([0, 0, 0, 0, 0, 1, 1], dtype=bool)
        plan = SchedulePlan(g, np.array([3, 4, 5, 6]), validated=False)
        Ms = list(range(1, 8))
        for policy, count in PASSES.items():
            assert count(plan, is_input, is_output, Ms) is None
            got = [loop_outcome(plan, is_input, is_output, M, policy)
                   for M in Ms]
            assert [type(o) for o in got] == (
                [CacheError] * 3 + [ScheduleError] * 4
            )

    def test_partial_schedule_counts_only_scheduled_outputs(self):
        g = graph("strassen")
        is_input, is_output = masks(g)
        sched = recursive_schedule(g)[: 2 * g.n_vertices // 3]
        plan = SchedulePlan(g, sched, validated=False)
        n_scheduled = int(is_output[sched].sum())
        assert 0 < n_scheduled < int(is_output.sum())
        for policy, count in PASSES.items():
            got = count(plan, is_input, is_output, [MIN_M, 24])
            for M, counts in zip([MIN_M, 24], got):
                assert counts == simulate_py(plan, is_input, is_output, M,
                                             policy)
                assert counts[5] == n_scheduled

    def test_schedule_outside_the_derivation_runs_on_the_loop(self):
        """A vertex scheduled twice is left to the loop."""
        g = graph("strassen")
        is_input, is_output = masks(g)
        sched = recursive_schedule(g)
        twice = np.concatenate([sched, sched[-1:]])
        plan = SchedulePlan(g, twice, validated=False)
        for count in PASSES.values():
            assert count(plan, is_input, is_output, [12]) is None
        got = CacheExecutor(g).run_many(twice, (12, 24), tuple(PASSES),
                                        validate=False)
        assert len(got) == 4
        for (M, policy), res in got.items():
            want = simulate_py(plan, is_input, is_output, M, policy)
            assert counts_of(res) == want[:7]


def test_fallback_runs_the_pass_at_the_first_lru_configuration(monkeypatch):
    """run_many calls each policy's pass once, with that policy's
    sorted cache sizes, inside the span of its first configuration; a
    mixed LRU/FIFO/Belady batch gets the loop's counts."""
    g = graph("strassen")
    is_input, is_output = masks(g)
    sched = recursive_schedule(g)
    plan = SchedulePlan(g, sched, validated=True)
    calls = []

    def spy(count):
        def counted(*args):
            calls.append((count.__name__, args[3],
                          telemetry.current_span().attrs))
            return count(*args)
        return counted

    monkeypatch.setitem(executor_module._PASSES, "lru", spy(lru_counts))
    monkeypatch.setitem(executor_module._PASSES, "belady",
                        spy(belady_counts))
    telemetry.enable()
    try:
        got = CacheExecutor(g).run_many(sched, (24, 12, 48),
                                        ("fifo", "lru", "belady"))
    finally:
        telemetry.disable()
        telemetry.reset()
    assert calls == [
        ("lru_counts", [12, 24, 48], {"policy": "lru", "cache_size": 24}),
        ("belady_counts", [12, 24, 48],
         {"policy": "belady", "cache_size": 24}),
    ]
    assert len(got) == 9
    for (M, policy), res in got.items():
        want = simulate_py(plan, is_input, is_output, M, policy)
        assert counts_of(res) == want[:7]


class TestFreeSlotStack:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_greedy_matches_the_slice_greedy(self, seed):
        """Random intervals (in end order) over a random occupancy
        profile: the free-slot stack accepts exactly what the greedy
        over array slices accepts."""
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 40))
        M = int(rng.integers(1, 8))
        occ = rng.integers(0, M + 1, T)
        hi = np.sort(rng.integers(1, T + 1, int(rng.integers(0, 60))))
        lo = np.minimum(rng.integers(0, T, len(hi)), hi - 1)
        got = _greedy(lo, hi, (M - occ).tolist())
        want = []
        for a, t in zip(lo, hi):
            want.append(bool(occ[a:t].max() < M))
            occ[a:t] += want[-1]
        assert got.tolist() == want
