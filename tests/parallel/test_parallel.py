"""Tests for the parallel machine, CAPS simulator, and baselines."""

import numpy as np
import pytest

from repro.bilinear import strassen
from repro.bounds import (
    memory_independent_lower_bound,
    parallel_bandwidth_lower_bound,
)
from repro.cdag import build_cdag
from repro.errors import PartitionError
from repro.parallel import (
    CommunicationLog,
    DistributedMachine,
    cannon_2d_bandwidth,
    classical_25d_bandwidth,
    classical_3d_bandwidth,
    communication_volume,
    minimum_memory,
    partition_by_rank_balanced,
    per_processor_traffic,
    replication_for_memory,
    simulate_caps,
    summa_bandwidth,
    validate_rank_balanced,
)


class TestCommunicationLog:
    def test_bandwidth_is_max_per_superstep(self):
        log = CommunicationLog(4)
        log.superstep({0: (10, 0), 1: (0, 10), 2: (3, 3)})
        log.superstep({3: (5, 5)})
        assert log.bandwidth_cost() == 10 + 10

    def test_uniform_superstep(self):
        log = CommunicationLog(3)
        log.uniform_superstep(7)
        assert log.bandwidth_cost() == 14
        assert log.total_volume() == 21

    def test_rejects_bad_processor(self):
        log = CommunicationLog(2)
        with pytest.raises(PartitionError):
            log.superstep({5: (1, 1)})

    def test_rejects_negative(self):
        log = CommunicationLog(2)
        with pytest.raises(PartitionError):
            log.superstep({0: (-1, 0)})

    def test_empty_log(self):
        assert CommunicationLog(2).bandwidth_cost() == 0


class TestCapsSimulator:
    def test_single_processor_no_communication(self):
        run = simulate_caps(strassen(), 64, DistributedMachine(1, 10**6))
        assert run.bandwidth_cost == 0
        assert run.schedule_string == "L"

    def test_memory_floor_enforced(self):
        with pytest.raises(PartitionError):
            simulate_caps(strassen(), 1024, DistributedMachine(7, 100))

    def test_requires_power_of_b(self):
        with pytest.raises(ValueError):
            simulate_caps(strassen(), 64, DistributedMachine(6, 10**6))

    def test_too_many_processors(self):
        with pytest.raises(PartitionError):
            simulate_caps(strassen(), 4, DistributedMachine(7**3, 10**9))

    def test_unknown_strategy(self):
        with pytest.raises(PartitionError):
            simulate_caps(
                strassen(), 64, DistributedMachine(7, 10**6), strategy="x"
            )

    def test_bfs_when_memory_rich(self):
        run = simulate_caps(strassen(), 256, DistributedMachine(49, 10**9))
        assert run.schedule_string == "BBL"

    def test_dfs_appears_when_memory_poor(self):
        alg = strassen()
        n, P = 1024, 7**3
        tight = int(minimum_memory(alg, n, P) * 1.2)
        run = simulate_caps(alg, n, DistributedMachine(P, tight))
        assert "D" in run.schedule_string

    def test_peak_memory_within_limit_auto(self):
        alg = strassen()
        n, P = 1024, 7**3
        M = int(minimum_memory(alg, n, P) * 2)
        run = simulate_caps(alg, n, DistributedMachine(P, M))
        assert run.peak_memory_per_processor <= M

    def test_memory_rich_matches_memory_independent_shape(self):
        """BW / (n^2 / P^(2/w0)) must be bounded across P (constant
        factor of the memory-independent bound)."""
        alg = strassen()
        n, M = 2**10, 10**9
        ratios = []
        for t in (1, 2, 3, 4):
            run = simulate_caps(alg, n, DistributedMachine(7**t, M))
            ratios.append(
                run.bandwidth_cost
                / memory_independent_lower_bound(alg, n, 7**t)
            )
        assert max(ratios) < 20
        assert min(ratios) > 1

    def test_memory_poor_scaling_factor(self):
        """Halving memory past the threshold multiplies BW by b/a —
        the (n/sqrt(M))^w0 * M signature (d/dM slope)."""
        alg = strassen()
        n, P = 2**10, 7**3
        base = int(minimum_memory(alg, n, P))
        bw = {}
        for mult in (2, 8):
            run = simulate_caps(alg, n, DistributedMachine(P, base * mult))
            bw[mult] = run.bandwidth_cost
        # Two extra DFS levels between M and 4M: factor (b/a)^2.
        assert bw[2] / bw[8] == pytest.approx((7 / 4) ** 2, rel=0.05)

    def test_bfs_first_cheapest_when_it_fits(self):
        alg = strassen()
        n, P, M = 2**9, 49, 10**9
        auto = simulate_caps(alg, n, DistributedMachine(P, M), "auto")
        bfs = simulate_caps(alg, n, DistributedMachine(P, M), "bfs-first")
        dfs = simulate_caps(alg, n, DistributedMachine(P, M), "dfs-first")
        assert bfs.bandwidth_cost == auto.bandwidth_cost
        assert dfs.bandwidth_cost >= auto.bandwidth_cost

    def test_bfs_first_raises_without_memory(self):
        alg = strassen()
        n, P = 2**10, 7**3
        tight = int(minimum_memory(alg, n, P) * 1.2)
        with pytest.raises(PartitionError):
            simulate_caps(alg, n, DistributedMachine(P, tight), "bfs-first")

    def test_caps_above_lower_bound(self):
        """Measured cost respects Theorem 1's combined lower bound."""
        alg = strassen()
        n = 2**10
        for t in (1, 2, 3):
            P = 7**t
            for mult in (1.5, 4, 1000):
                M = int(minimum_memory(alg, n, P) * mult)
                run = simulate_caps(alg, n, DistributedMachine(P, M))
                lb = max(
                    parallel_bandwidth_lower_bound(alg, n, M, P),
                    memory_independent_lower_bound(alg, n, P),
                )
                assert run.bandwidth_cost >= lb


class TestBaselines:
    def test_cannon(self):
        assert cannon_2d_bandwidth(128, 16) == 2 * 128 * 128 / 4

    def test_cannon_needs_square(self):
        with pytest.raises(PartitionError):
            cannon_2d_bandwidth(128, 12)

    def test_summa_log_factor(self):
        assert summa_bandwidth(128, 16) == pytest.approx(
            2 * 128 * 128 / 4 * 2
        )

    def test_3d(self):
        assert classical_3d_bandwidth(128, 64) == pytest.approx(
            3 * 128 * 128 / 16
        )

    def test_25d_interpolates(self):
        n, P = 1024, 64
        assert classical_25d_bandwidth(n, P, 1) > classical_25d_bandwidth(
            n, P, 4
        )

    def test_25d_replication_cap(self):
        with pytest.raises(PartitionError):
            classical_25d_bandwidth(64, 8, 5)

    def test_replication_for_memory(self):
        n, P = 256, 64
        assert replication_for_memory(n, P, 3 * n * n // P) == 1
        assert replication_for_memory(n, P, 100 * n * n) == 4


class TestPartition:
    @pytest.fixture(scope="class")
    def g2(self):
        return build_cdag(strassen(), 2)

    def test_balanced(self, g2):
        owner = partition_by_rank_balanced(g2, 4)
        validate_rank_balanced(g2, owner, 4)

    def test_random_balanced(self, g2):
        owner = partition_by_rank_balanced(g2, 4, seed=5, contiguous=False)
        validate_rank_balanced(g2, owner, 4)

    def test_unbalanced_rejected(self, g2):
        owner = np.zeros(g2.n_vertices, dtype=np.int64)
        with pytest.raises(PartitionError):
            validate_rank_balanced(g2, owner, 4)

    def test_single_owner_no_communication(self, g2):
        owner = np.zeros(g2.n_vertices, dtype=np.int64)
        assert communication_volume(g2, owner) == 0

    def test_volume_counts_distinct_destinations(self, g2):
        owner = partition_by_rank_balanced(g2, 4)
        vol = communication_volume(g2, owner)
        traffic = per_processor_traffic(g2, owner)
        assert vol > 0
        # sent total == received total == volume.
        assert traffic.sum() == 2 * vol

    def test_contiguous_beats_random(self, g2):
        """The slab-aligned partition communicates less than a random
        balanced one — locality matters, as the bound's tightness
        argument requires."""
        good = communication_volume(g2, partition_by_rank_balanced(g2, 4))
        bad = communication_volume(
            g2, partition_by_rank_balanced(g2, 4, seed=1, contiguous=False)
        )
        assert good < bad
