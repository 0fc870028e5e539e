"""Deterministic pseudo-random numbers via splitmix64.

Every stochastic component in the toolkit (bootstrap draws, feature
subsets, epoch shuffles, weight initialization) pulls from this generator
so that a fixed seed yields byte-identical models on any platform.

Draw-order contract: each training routine documents the exact sequence of
calls it makes, and ensemble members use `derive(seed, index)` so members
are independent of training order.

Block contract: splitmix64 is counter-based, so draw k of a stream is the
mix of `state + k * golden` alone. `block(m)` computes the next m draws as
one numpy uint64 array expression; it returns exactly the values of m
`next_uint64()` calls and leaves the generator in the same state. `shuffle`
and `sample_indices` take their bounds from one block, as do the ensemble
bootstraps and the MLP weight initialization; the scalar methods stay, and
are the reference those block draws are tested against.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# the same constants as uint64 scalars, for the array form of the mix;
# uint64 array arithmetic wraps modulo 2**64 without a warning
_U_GOLDEN, _U_MUL1, _U_MUL2 = np.uint64(_GOLDEN), np.uint64(_MUL1), np.uint64(_MUL2)
_U_30, _U_27, _U_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, index: int) -> int:
    """Seed for the index-th child stream of `seed` (ensemble members)."""
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """splitmix64 generator; state advances by the 64-bit golden ratio."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def block(self, m: int) -> np.ndarray:
        """The next m `next_uint64()` values as a uint64 array, in order."""
        if m < 0:
            raise ValueError("block needs m >= 0")
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= _U_GOLDEN
        z += np.uint64(self._state)
        self._state = (self._state + m * _GOLDEN) & _MASK64
        z ^= z >> _U_30
        z *= _U_MUL1
        z ^= z >> _U_27
        z *= _U_MUL2
        z ^= z >> _U_31
        return z

    def next_float(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). Plain modulo; the tiny bias is
        irrelevant here and keeps the draw order trivial to replicate."""
        if n <= 0:
            raise ValueError("next_below needs n >= 1")
        return self.next_uint64() % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down:
        step i swaps seq[i] with seq[next_below(i + 1)]."""
        n = len(seq)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), (self.block(n - 1) % bounds).tolist()):
            seq[i], seq[j] = seq[j], seq[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), returned sorted.

        Partial Fisher-Yates: exactly k `next_below` draws, step i swapping
        pool[i] with pool[i + next_below(n - i)]. Callers that want the
        full range must skip the call entirely (no draws) so that
        subset-of-everything reduces exactly to the no-subset code path.
        """
        if not 0 <= k <= n:
            raise ValueError("sample_indices needs 0 <= k <= n")
        pool = list(range(n))
        bounds = np.arange(n, n - k, -1, dtype=np.uint64)
        for i, j in enumerate((self.block(k) % bounds).tolist()):
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])
