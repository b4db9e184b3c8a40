"""Golden-equivalence tests: the cut queries must agree with the
whole-graph, per-vertex reference.

``tests/bounds/_reference.py`` keeps the original formulation verbatim:
the split graph of the whole CDAG solved by the recursive Dinic, and the
per-vertex minimum-set loop.  These tests run both over random target
sets on Strassen, Winograd and classical G_1-G_3, and over every part of
the Hong-Kung partitions the repository cuts, and assert equal dominator
sizes and identical minimum sets.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import classical, strassen, winograd
from repro.bounds import minimum_dominator_size, minimum_set, partition_by_io
from repro.cdag import build_cdag
from repro.schedules import (
    loop_order_schedule,
    random_topological_schedule,
    recursive_schedule,
)

from ._reference import reference_minimum_dominator_size, reference_minimum_set

ALGORITHMS = {
    "strassen": strassen,
    "winograd": winograd,
    "classical": lambda: classical(2),
}


@functools.cache
def _graph(name: str, r: int):
    return build_cdag(ALGORITHMS[name](), r)


@functools.cache
def _schedule(name: str, r: int, order: str) -> np.ndarray:
    g = _graph(name, r)
    if order == "recursive":
        return recursive_schedule(g)
    if order == "random":
        return random_topological_schedule(g, seed=r)
    return loop_order_schedule(g, order)


def _assert_same_cuts(g, targets):
    assert minimum_dominator_size(g, targets) == reference_minimum_dominator_size(
        g, targets
    )
    got = minimum_set(g, targets)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference_minimum_set(g, targets))


@st.composite
def target_sets(draw):
    """A CDAG and a target list: a random subset, a schedule slice, a
    set holding inputs or outputs, or the empty set — possibly with
    duplicates, in any order."""
    name = draw(st.sampled_from(sorted(ALGORITHMS)))
    r = draw(st.integers(1, 3))
    g = _graph(name, r)
    n = g.n_vertices
    kind = draw(st.sampled_from(("subset", "slice", "inputs", "outputs", "empty")))
    if kind == "subset":
        targets = draw(st.lists(st.integers(0, n - 1), max_size=80, unique=True))
    elif kind == "slice":
        sched = _schedule(name, r, draw(st.sampled_from(("recursive", "random"))))
        start = draw(st.integers(0, len(sched) - 1))
        targets = sched[start : start + draw(st.integers(1, 200))].tolist()
    elif kind in ("inputs", "outputs"):
        special = (g.inputs() if kind == "inputs" else g.outputs()).tolist()
        targets = draw(st.lists(st.sampled_from(special), min_size=1, unique=True))
        targets += draw(st.lists(st.integers(0, n - 1), max_size=20))
    else:
        targets = []
    if targets and draw(st.booleans()):
        targets += draw(st.lists(st.sampled_from(targets), min_size=1, max_size=10))
        targets = draw(st.permutations(targets))
    return g, targets


@settings(max_examples=80, deadline=None)
@given(case=target_sets())
def test_random_targets_match_reference(case):
    g, targets = case
    _assert_same_cuts(g, targets)


@pytest.mark.parametrize(
    "name, r, order, M",
    [
        # The repository benchmark's hk_dominators workload.
        ("strassen", 3, "recursive", 32),
        ("classical", 3, "ijk", 32),
        # E14.1 at its default M.
        ("classical", 3, "ijk", 8),
        ("strassen", 2, "recursive", 8),
        ("strassen", 3, "recursive", 8),
    ],
)
def test_every_hk_part_matches_reference(name, r, order, M):
    g = _graph(name, r)
    parts = partition_by_io(g, _schedule(name, r, order), M)
    for part in parts:
        _assert_same_cuts(g, part)
