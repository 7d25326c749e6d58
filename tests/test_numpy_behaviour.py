"""NumPy behaviours that the byte-identical outputs rest on, each checked against a pure-Python oracle.

A switched run's schedule is a uint8 or uint16 array of group ids that
``Generator.shuffle`` permutes; its digests hold only while that
permutation is the one below, for every dtype alike.
"""

import numpy as np
import pytest


def _fisher_yates(seed: int, size: int) -> list[int]:
    """The permutation that ``Generator.shuffle`` applies to ``size`` items under ``PCG64(seed)``.

    For i from size-1 down to 1, item i swaps with item j, a draw in
    0 .. i: 32-bit halves of PCG64's raw words, the low half first, each
    masked to i's bit length and drawn again while above i.
    """
    bits, high = np.random.PCG64(seed), []  # high: the unused half of the last raw word, if any
    perm = list(range(size))
    for i in range(size - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if high:
                half = high.pop()
            else:
                word = int(bits.random_raw())
                half, high = word & 0xFFFF_FFFF, [word >> 32]
            if (j := half & mask) <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("seed", [1, 7, 12_345])
@pytest.mark.parametrize("size", [10, 300, 1_000])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_shuffle_is_the_fisher_yates_oracle(seed, size, dtype):
    items = np.arange(size).astype(dtype)
    shuffled = items.copy()
    np.random.Generator(np.random.PCG64(seed)).shuffle(shuffled)
    assert np.array_equal(shuffled, items[_fisher_yates(seed, size)]), (
        f"Generator.shuffle of {size} {np.dtype(dtype).name} items at seed {seed} is no longer the Fisher-Yates "
        f"permutation over PCG64 raw words (numpy {np.__version__}): every switched run's digest changes with it")
