"""Equivalence of the tracesim thin views and the columnar lockstep
trace kernel against the frozen golden reference
(``tests/tracesim/_reference.py``)."""

import numpy as np
import pytest

from repro.simcore import dispatch
from repro.simcore.trace import run_trace_grid
from repro.tracesim import FullyAssociativeLRU, SetAssociativeLRU, trace_blocked
from repro.tracesim import cache as tracesim_cache

from tests.tracesim._reference import (
    ReferenceFullyAssociativeLRU,
    ReferenceSetAssociativeLRU,
)


def random_trace(seed, n_accesses=2000, n_addresses=120):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, n_addresses, size=n_accesses)
    writes = rng.random(n_accesses) < 0.3
    return list(zip(addrs.tolist(), writes.tolist()))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("capacity,line_size", [(8, 1), (17, 1), (8, 4)])
def test_fa_matches_reference(seed, capacity, line_size):
    trace = random_trace(seed)
    got = FullyAssociativeLRU(capacity, line_size).run(iter(trace))
    want = ReferenceFullyAssociativeLRU(capacity, line_size).run(iter(trace))
    assert got.as_dict() == want.as_dict()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_sets,ways,line_size", [(4, 2, 1), (1, 8, 1), (8, 3, 2)])
def test_sa_matches_reference(seed, n_sets, ways, line_size):
    trace = random_trace(seed)
    got = SetAssociativeLRU(n_sets, ways, line_size).run(iter(trace))
    want = ReferenceSetAssociativeLRU(n_sets, ways, line_size).run(iter(trace))
    assert got.as_dict() == want.as_dict()


@pytest.mark.parametrize("capacity,line_size", [(8, 1), (8, 4)])
def test_fa_kernel_route_matches_reference(monkeypatch, capacity, line_size):
    """The cold-run route a compiled install takes through the lockstep
    trace kernel, driven on the interpreted kernel."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return run_trace_grid(*args, **kwargs)

    monkeypatch.setattr(tracesim_cache, "active_mode", lambda: "jit")
    monkeypatch.setattr(tracesim_cache, "run_trace_grid", spy)
    trace = random_trace(5)
    with dispatch.forced_mode("interp"):
        got = FullyAssociativeLRU(capacity, line_size).run(iter(trace))
    want = ReferenceFullyAssociativeLRU(capacity, line_size).run(iter(trace))
    assert calls == [[capacity]]
    assert got.as_dict() == want.as_dict()


def test_incremental_access_matches_reference():
    trace = random_trace(99, n_accesses=800, n_addresses=40)
    fa, ref = FullyAssociativeLRU(12), ReferenceFullyAssociativeLRU(12)
    for addr, w in trace:
        assert fa.access(addr, w) == ref.access(addr, w)
    fa.flush()
    ref.flush()
    assert fa.stats.as_dict() == ref.stats.as_dict()


@pytest.mark.parametrize("mode", ["off", "interp"])
@pytest.mark.parametrize("seed", range(3))
def test_trace_grid_matches_reference(mode, seed):
    """One lockstep pass over many capacities == one reference run per
    capacity, on both the fallback and the interpreted kernel path."""
    trace = random_trace(seed, n_accesses=3000, n_addresses=200)
    addrs = np.array([a for a, _ in trace], dtype=np.int64)
    writes = np.array([w for _, w in trace], dtype=np.uint8)
    capacities = [1, 3, 8, 33, 100, 400]
    with dispatch.forced_mode(mode):
        grid = run_trace_grid(addrs, writes, capacities)
    for cap, got in zip(capacities, grid):
        want = ReferenceFullyAssociativeLRU(cap).run(iter(trace))
        assert got.as_dict() == want.as_dict(), f"capacity {cap}"


def test_trace_grid_line_size():
    trace = random_trace(7, n_accesses=1500, n_addresses=300)
    addrs = np.array([a for a, _ in trace], dtype=np.int64)
    writes = np.array([w for _, w in trace], dtype=np.uint8)
    with dispatch.forced_mode("interp"):
        grid = run_trace_grid(addrs, writes, [16], line_size=4)
    want = ReferenceFullyAssociativeLRU(16, line_size=4).run(iter(trace))
    assert grid[0].as_dict() == want.as_dict()


def test_trace_grid_empty_trace():
    with dispatch.forced_mode("interp"):
        grid = run_trace_grid(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), [4, 8]
        )
    assert [s.as_dict() for s in grid] == [
        {"accesses": 0, "hits": 0, "misses": 0, "writebacks": 0}
    ] * 2


def test_trace_grid_on_real_kernel_trace():
    """Blocked-matmul trace: the lockstep grid agrees with the
    production fully-associative simulator at every capacity."""
    trace = list(trace_blocked(12, 4))
    addrs = np.array([a for a, _ in trace], dtype=np.int64)
    writes = np.array([w for _, w in trace], dtype=np.uint8)
    capacities = [8, 64, 512]
    with dispatch.forced_mode("interp"):
        grid = run_trace_grid(addrs, writes, capacities)
    for cap, got in zip(capacities, grid):
        want = FullyAssociativeLRU(cap).run(iter(trace))
        assert got.as_dict() == want.as_dict()
