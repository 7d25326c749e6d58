"""NumPy behaviours that the byte-identical outputs rest on, each checked against PCG64's raw words.

A pair stream's ``lam`` and ``t`` are ``Generator.random`` floats of one
PCG64 sequence, the ``t`` half reached by ``PCG64.advance`` and both
drawn a block at a time into reused buffers. A switched run's schedule
is a uint8 or uint16 array of group ids that ``Generator.shuffle``
permutes. Every digest holds only while these stay as the oracles below
have them; NumPy fixes only the bit generators' raw streams across
versions, so a failure names the behaviour that changed.
"""

import numpy as np
import pytest

from eqrc.model import BLOCK_PAIRS

SEEDS = [1, 7, 12_345]


def _changed(behaviour: str) -> str:
    return f"{behaviour} changed under numpy {np.__version__}: every digest that draws through it changes with it"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_is_the_top_53_bits_of_each_raw_word(seed):
    raw = np.random.PCG64(seed).random_raw(1_000)
    want = [(int(word) >> 11) * 2.0**-53 for word in raw]  # exact: a 53-bit integer times a power of two
    got = np.random.Generator(np.random.PCG64(seed)).random(1_000).tolist()
    assert got == want, _changed("Generator.random as (raw >> 11) * 2**-53 over PCG64 raw words")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [0, 1, 8_192, 100_003])
def test_advance_is_discarding_raw_words(seed, k):
    got = np.random.PCG64(seed).advance(k).random_raw(16)
    want = np.random.PCG64(seed).random_raw(k + 16)[k:]
    assert np.array_equal(got, want), _changed(f"PCG64.advance({k}) as discarding {k} raw words")


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_random_into_a_buffer_is_one_whole_draw(seed):
    count = 2 * BLOCK_PAIRS + 5  # two whole blocks and a short one, as ``measure_stream`` draws them
    whole = np.random.Generator(np.random.PCG64(seed)).random(count)
    rng, buf, blocks = np.random.Generator(np.random.PCG64(seed)), np.empty(BLOCK_PAIRS), []
    for lo in range(0, count, BLOCK_PAIRS):
        blocks.append(rng.random(out=buf[:count - lo]).copy())
    assert np.array_equal(np.concatenate(blocks), whole), _changed(
        f"Generator.random(out=...) in blocks of {BLOCK_PAIRS} as one whole draw")


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
