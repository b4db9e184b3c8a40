"""Equivalence of the production fully associative LRU loop with the
frozen golden reference (``tests/tracesim/_reference.py``)."""

import numpy as np
import pytest

from repro.tracesim import FullyAssociativeLRU, trace_blocked

from tests.tracesim._reference import ReferenceFullyAssociativeLRU


def random_trace(seed, n_accesses=2000, n_addresses=120):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, n_addresses, size=n_accesses)
    writes = rng.random(n_accesses) < 0.3
    return list(zip(addrs.tolist(), writes.tolist()))


def named_trace(name):
    if name == "blocked12":
        return list(trace_blocked(12, 4))
    if name == "empty":
        return []
    return random_trace(int(name))


@pytest.mark.parametrize(
    "capacity,line_size,trace",
    [
        (capacity, line_size, seed)
        for capacity, line_size in [(8, 1), (17, 1), (8, 4), (1, 1), (400, 1)]
        for seed in "0123"
    ]
    + [(capacity, 1, "blocked12") for capacity in (8, 64, 512)]
    + [(64, 4, "blocked12"), (8, 1, "empty")],
)
def test_fa_matches_reference(capacity, line_size, trace):
    trace = named_trace(trace)
    got = FullyAssociativeLRU(capacity, line_size).run(iter(trace))
    want = ReferenceFullyAssociativeLRU(capacity, line_size).run(iter(trace))
    assert got == want
