"""Genome encoding, the hybrid family, and local moves."""

import numpy as np
import pytest

from repro.autotune.genome import (
    MOVES,
    GenomeContext,
    genome_key,
    hybrid_order,
    move_block_rotate,
    move_block_swap,
    move_digit_regroup,
    move_hybrid_level,
    random_move,
)

CTX = GenomeContext(n_products=49, b=7, r=2)


def _is_permutation(order, n):
    return sorted(np.asarray(order).tolist()) == list(range(n))


class TestContext:
    def test_shape_must_be_b_to_the_r(self):
        with pytest.raises(ValueError, match="b\\^r"):
            GenomeContext(n_products=48, b=7, r=2)


class TestKey:
    def test_stable_and_injective_on_distinct_orders(self):
        a = np.arange(49, dtype=np.int64)
        b = a[::-1].copy()
        assert genome_key(a) == genome_key(np.arange(49))
        assert genome_key(a) != genome_key(b)

    def test_dtype_canonicalised(self):
        assert genome_key(list(range(49))) == genome_key(
            np.arange(49, dtype=np.int32)
        )


class TestHybridFamily:
    def test_depth_zero_is_recursive(self):
        assert np.array_equal(hybrid_order(CTX, 0), np.arange(49))

    def test_every_depth_is_a_permutation(self):
        for d in range(CTX.r + 1):
            assert _is_permutation(hybrid_order(CTX, d), 49)

    def test_intermediate_depth_blocks_inner_subtrees(self):
        # d = 1 iterates inner indices across outer blocks: the first b
        # visits are the first product of each outer subtree.
        order = hybrid_order(CTX, 1)
        assert order[: CTX.b].tolist() == [7 * k for k in range(CTX.b)]

    def test_family_is_cyclic(self):
        # Rotating every digit out leaves nothing inner: d = r is the
        # recursive order again.
        assert np.array_equal(hybrid_order(CTX, CTX.r), np.arange(49))

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            hybrid_order(CTX, CTX.r + 1)


class TestMoves:
    @pytest.mark.parametrize(
        "move",
        [move_block_swap, move_block_rotate, move_digit_regroup,
         move_hybrid_level],
        ids=[name for name, _ in MOVES],
    )
    def test_moves_produce_permutations(self, move):
        rng = np.random.default_rng(11)
        order = rng.permutation(49).astype(np.int64)
        for _ in range(20):
            out = move(order, rng, CTX)
            if out is not None:
                assert _is_permutation(out, 49)

    def test_block_swap_is_draw_compatible_with_legacy(self):
        """Same seed, same two integers() draws per attempt, same swap —
        the draw discipline the fixed-seed anneal trajectories rely on."""
        n = CTX.n_products
        order = np.arange(n, dtype=np.int64)
        for seed in range(8):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = move_block_swap(order, a, CTX)
            length = int(b.integers(1, max(2, n // 8)))
            i, j = sorted(b.integers(0, n - length, size=2).tolist())
            if i + length > j:
                assert got is None
                continue
            want = order.copy()
            want[i : i + length], want[j : j + length] = (
                order[j : j + length].copy(),
                order[i : i + length].copy(),
            )
            assert np.array_equal(got, want)

    def test_moves_do_not_mutate_input(self):
        rng = np.random.default_rng(5)
        order = np.arange(49, dtype=np.int64)
        before = order.copy()
        for _ in range(10):
            random_move(order, rng, CTX)
        assert np.array_equal(order, before)

    def test_random_move_is_total_and_named(self):
        rng = np.random.default_rng(2)
        names = {name for name, _ in MOVES} | {"noop"}
        order = np.arange(49, dtype=np.int64)
        for _ in range(50):
            name, out = random_move(order, rng, CTX)
            assert name in names
            assert _is_permutation(out, 49)

    def test_random_move_replays_from_rng_state(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        order = np.arange(49, dtype=np.int64)
        first = [random_move(order, rng, CTX) for _ in range(5)]
        rng.bit_generator.state = state
        second = [random_move(order, rng, CTX) for _ in range(5)]
        for (n1, o1), (n2, o2) in zip(first, second):
            assert n1 == n2
            assert np.array_equal(o1, o2)
