import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_mlp, train_svm
from rusent.classifiers.ensemble import bootstrap_indices
from rusent.classifiers.mlp import _init_mlp
from rusent.rng import SplitMix64, derive

from conftest import make_matrix


class TestKnownVectors:
    def test_seed_zero_reference_outputs(self):
        g = SplitMix64(0)
        assert g.next_uint64() == 0xE220A8397B1DCDAF
        assert g.next_uint64() == 0x6E789E6AA1B965F4
        assert g.next_uint64() == 0x06C45D188009454F

    def test_seed_1234567_reference_outputs(self):
        g = SplitMix64(1234567)
        assert [g.next_uint64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_uint64() == SplitMix64(0).next_uint64()


class TestDerive:
    def test_distinct_children(self):
        children = {derive(0, i) for i in range(100)}
        assert len(children) == 100

    def test_independent_of_call_order(self):
        a = derive(7, 3)
        derive(7, 0)
        assert derive(7, 3) == a

    def test_child_streams_differ_from_parent(self):
        parent = SplitMix64(9)
        child = SplitMix64(derive(9, 0))
        assert parent.next_uint64() != child.next_uint64()


class TestFloats:
    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_next_float_in_unit_interval(self, seed):
        x = SplitMix64(seed).next_float()
        assert 0.0 <= x < 1.0

    @given(st.integers(0, 2**32), st.floats(-100, 100), st.floats(0.001, 100))
    @settings(max_examples=100, deadline=None)
    def test_uniform_bounds(self, seed, lo, width):
        hi = lo + width
        x = SplitMix64(seed).uniform(lo, hi)
        assert lo <= x <= hi

    def test_mean_roughly_half(self):
        g = SplitMix64(2024)
        xs = [g.next_float() for _ in range(20000)]
        assert abs(sum(xs) / len(xs) - 0.5) < 0.01


class TestIntegers:
    @given(st.integers(0, 2**32), st.integers(1, 1000))
    @settings(max_examples=150, deadline=None)
    def test_next_below_range(self, seed, n):
        assert 0 <= SplitMix64(seed).next_below(n) < n

    def test_next_below_zero_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)

    def test_frozen_shuffle(self):
        seq = list(range(8))
        SplitMix64(1).shuffle(seq)
        assert seq == [4, 3, 2, 7, 5, 6, 0, 1]


class TestShuffleAndSample:
    @given(st.integers(0, 2**32), st.lists(st.integers(), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_shuffle_is_permutation(self, seed, items):
        shuffled = list(items)
        SplitMix64(seed).shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)

    @given(st.integers(0, 2**32), st.integers(1, 40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sample_indices_distinct_sorted_in_range(self, seed, n, data):
        k = data.draw(st.integers(0, n))
        out = SplitMix64(seed).sample_indices(n, k)
        assert len(out) == k == len(set(out))
        assert out == sorted(out)
        assert all(0 <= i < n for i in out)

    def test_sample_consumes_exactly_k_draws(self):
        a = SplitMix64(3)
        a.sample_indices(10, 4)
        b = SplitMix64(3)
        for _ in range(4):
            b.next_uint64()
        assert a.next_uint64() == b.next_uint64()

    def test_frozen_sample(self):
        assert SplitMix64(5).sample_indices(10, 4) == [0, 5, 8, 9]

    def test_full_sample_is_every_index(self):
        assert SplitMix64(11).sample_indices(6, 6) == list(range(6))


# -- block draws ---------------------------------------------------------
#
# The scalar loops below are the reference: each block-drawing routine must
# return what its loop of next_uint64 / next_below / uniform calls returns,
# and leave the generator where that loop leaves it.

GOLDEN = 0x9E3779B97F4A7C15
EDGE_SEEDS = [
    0,
    2**64 - 1,  # the first step wraps
    2**64,  # seeds >= 2**64 are taken modulo 2**64
    2**70 + 12345,
    (-3 * GOLDEN) % 2**64,  # the state is exactly 0 after the third draw
]
seeds = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**72), st.sampled_from(EDGE_SEEDS))


def scalar_shuffle(g, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = g.next_below(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def scalar_sample_indices(g, n, k):
    pool = list(range(n))
    for i in range(k):
        j = i + g.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def scalar_mlp_weights(g, sizes):
    weights = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        W = np.empty((fan_in, fan_out))
        for i in range(fan_in):
            for j in range(fan_out):
                W[i, j] = g.uniform(-r, r)
        weights.append(W)
    return weights


def pair(seed):
    """A generator for the block routine and one for its scalar reference."""
    return SplitMix64(seed), SplitMix64(seed)


@pytest.mark.filterwarnings("error")
class TestBlockDraws:
    @given(seeds, st.integers(0, 70))
    @example(0, 0)
    @example(2**64 - 1, 1)
    @example((-3 * GOLDEN) % 2**64, 6)
    @settings(max_examples=200)
    def test_block_is_m_scalar_draws(self, seed, m):
        a, b = pair(seed)
        block = a.block(m)
        assert block.dtype == np.uint64 and block.shape == (m,)
        assert block.tolist() == [b.next_uint64() for _ in range(m)]
        assert a._state == b._state
        assert a.next_uint64() == b.next_uint64()

    def test_consecutive_blocks_continue_the_stream(self):
        a, b = pair(2**64 - 1)
        got = a.block(3).tolist() + a.block(0).tolist() + a.block(5).tolist()
        assert got == [b.next_uint64() for _ in range(8)]

    def test_negative_block_is_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).block(-1)

    @given(seeds, st.lists(st.integers(), max_size=40))
    @example(0, [])
    @example(2**64 - 1, [7])
    @example(2**64, [7, 8])
    @settings(max_examples=200)
    def test_shuffle_matches_the_scalar_loop(self, seed, items):
        a, b = pair(seed)
        got, expected = list(items), list(items)
        a.shuffle(got)
        scalar_shuffle(b, expected)
        assert got == expected
        assert a._state == b._state

    @given(seeds, st.integers(0, 40), st.integers(0, 40))
    @example(0, 0, 0)
    @example(2**64 - 1, 1, 0)
    @example((-3 * GOLDEN) % 2**64, 2, 1)
    @settings(max_examples=200)
    def test_sample_indices_matches_the_scalar_loop(self, seed, n, k):
        for k in sorted({0, k % (n + 1), n}):
            a, b = pair(seed)
            assert a.sample_indices(n, k) == scalar_sample_indices(b, n, k)
            assert a._state == b._state

    def test_sample_of_more_than_n_is_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).sample_indices(3, 4)

    @given(seeds, st.integers(0, 60))
    @example(0, 0)
    @example(2**64 - 1, 1)
    @example(2**64, 2)
    @settings(max_examples=200)
    def test_bootstrap_indices_match_the_scalar_loop(self, seed, n):
        a, b = pair(seed)
        got = bootstrap_indices(a, n)
        assert got.dtype == np.intp
        assert got.tolist() == [b.next_below(n) for _ in range(n)]
        assert a._state == b._state

    @given(seeds, st.integers(1, 12), st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.integers(1, 4))
    @example(2**64 - 1, 1, [1], 1)
    @example((-3 * GOLDEN) % 2**64, 3, [2, 2], 2)
    @settings(max_examples=100)
    def test_mlp_init_weights_match_the_scalar_loop(self, seed, width, hidden, n_classes):
        m = make_matrix(np.zeros((1, width)), ["c0"], tuple(f"c{i}" for i in range(n_classes)))
        a, b = pair(seed)
        model = _init_mlp(a, m, hidden, "logistic", 0.1, 1, 16, 0)
        expected = scalar_mlp_weights(b, [width] + hidden + [n_classes])
        assert [W.tobytes() for W in model.weights] == [W.tobytes() for W in expected]
        assert a._state == b._state


# Model bytes of the two trainers that draw per epoch, on the 600 x 2000
# sparse count matrix of test_tree.py. Taken from the scalar draw loops,
# before the block draws replaced them; the mlp-3-class and mlp-one-batch
# entries from the per-layer MLP trainer, before the flat-buffer step
# replaced it. The MLP entries hold under OpenBLAS's SkylakeX kernel (see
# the CI workflow), and mlp-one-batch's, whose one 600-row batch makes a
# product OpenBLAS splits among threads, with 2, 3 or 4 threads: with one
# (OPENBLAS_NUM_THREADS=1) it gives other bytes.
WIDE_MODEL_HASHES = {
    "svm": "af2d53c6c7d39dbc40627fef36b4e2d1d00ca8ee3bd0811322f3ff404afa2fa0",
    "mlp-logistic": "7e746895dd71935cfd21c911e93db945063c968cefd325992bffa830a16062a2",
    "mlp-tanh": "4eec2d9ae36783db4b9b117f26dc062030d2718d6151d0772260ef203ccf76f3",
    "mlp-3-class": "95f1987e7815cb19c7c24934fb383b4fca84538d552272fbf19e35dd9eddd623",
    "mlp-one-batch": "9137ae38bc2eaea619679ee1077af012edd84304375f04aae9459598fa18e381",
}


def three_classes(m):
    """The wide matrix with every third row moved to a third class, so that
    the softmax reduces over more than two columns."""
    labels = ["neu" if i % 3 == 2 else label for i, label in enumerate(m.labels)]
    return make_matrix(m.rows, labels, ("neg", "neu", "pos"))


WIDE_TRAINERS = {
    "svm": lambda m: train_svm(m, lam=1e-3, epochs=3, seed=5),
    "mlp-logistic": lambda m: train_mlp(m, hidden=[8], epochs=2, batch_size=16, seed=5),
    # two hidden layers, and batches of 7 that leave a short last one
    "mlp-tanh": lambda m: train_mlp(m, hidden=[6, 4], activation="tanh", learning_rate=0.05,
                                    epochs=2, batch_size=7, seed=9),
    "mlp-3-class": lambda m: train_mlp(three_classes(m), hidden=[5], epochs=2, batch_size=16,
                                       seed=7),
    # a batch larger than the matrix: one step per epoch over all 600 rows
    "mlp-one-batch": lambda m: train_mlp(m, hidden=[4], learning_rate=0.5, epochs=3,
                                         batch_size=1000, seed=3),
}


@pytest.fixture(scope="module")
def wide_matrix():
    from test_tree import wide_count_matrix

    return wide_count_matrix()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(WIDE_TRAINERS))
def test_model_bytes_on_a_wide_matrix(wide_matrix, name):
    text = WIDE_TRAINERS[name](wide_matrix).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_MODEL_HASHES[name]
