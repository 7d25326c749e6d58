"""Local two-wing outcome model with a shared global gauge key.

A source emits correlated pairs. Each pair carries a hidden variable
``lam`` drawn uniformly on [0, 1) and a dimensionless time parameter
``t`` on [0, 1). The left wing always reports the gauge value
``g(t) = ±1``; the right wing reports ``-g(t)`` when ``lam`` falls below
a threshold set by its own magnet direction, ``+g(t)`` otherwise.
Neither wing's outcome function depends on the other wing's setting,
and the gauge is a global ±1 function of ``t`` only (distributable as a
key file). The product of the two outcomes averages to minus the dot
product of the two settings; a balanced gauge (e.g. a Rademacher
function) makes both marginal means vanish.

The rule lives in one vectorized kernel, ``outcome_columns``, which
the wing, pair-run and table functions call on ``PairStream`` columns.
All operations here are pure and deterministic: identical inputs give
identical outcomes, so everything is safe to evaluate concurrently.

A seeded stream of ``count`` pairs is one PCG64 sequence: ``lam`` is its
outputs 0..count-1 and ``t`` its outputs count..2*count-1. PCG64 jumps
ahead in O(log n) steps (``PCG64.advance``), so any block of either
column can be drawn alone, bit for bit the same; ``measure_stream``
measures a stream in blocks of ``BLOCK_PAIRS`` pairs that way.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "NORM_TOL",
    "BLOCK_PAIRS",
    "Setting",
    "PairStream",
    "GaugeKey",
    "MODE_CONSTANT",
    "MODE_RADEMACHER",
    "MODE_RADEMACHER_RARB",
    "rademacher",
    "rarb_eval",
    "gauge_eval",
    "sample_pair_stream",
    "derive_subseed",
    "outcome_columns",
    "measure_left",
    "measure_right",
    "measure_pairs",
    "measure_stream",
]

NORM_TOL = 1e-12


def _dumps(obj) -> str:
    """The JSON of every writer and the key digest: sorted keys, compact separators, no NaN or infinity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class Setting:
    """Unit vector in the plane transverse to the emission axis.

    The constructor normalizes inputs that are off unit length by more
    than ``NORM_TOL``, rejects zero or non-finite vectors, and refuses a
    component that is not an int or a float, such as a bool or a str
    (TypeError; numpy numbers are taken). Components already within
    tolerance are kept bit-for-bit (reproducibility).
    """

    b2: float
    b3: float

    def __post_init__(self) -> None:
        if not all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
                   for x in (self.b2, self.b3)):
            raise TypeError(f"setting components must be ints or floats, got ({self.b2!r}, {self.b3!r})")
        b2 = float(self.b2)
        b3 = float(self.b3)
        if not (math.isfinite(b2) and math.isfinite(b3)):
            raise ValueError(f"setting components must be finite, got ({self.b2}, {self.b3})")
        sq = b2 * b2 + b3 * b3
        if sq < NORM_TOL:
            raise ValueError("zero vector is not a valid setting")
        if abs(sq - 1.0) > NORM_TOL:
            norm = math.sqrt(sq)
            b2, b3 = b2 / norm, b3 / norm
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "b3", b3)

    @classmethod
    def from_angle(cls, theta: float) -> "Setting":
        return cls(math.cos(theta), math.sin(theta))

    def dot(self, other: "Setting") -> float:
        return self.b2 * other.b2 + self.b3 * other.b3

    def close_to(self, other: "Setting", tol: float = NORM_TOL) -> bool:
        return abs(self.b2 - other.b2) <= tol and abs(self.b3 - other.b3) <= tol


@dataclass(frozen=True)
class PairStream:
    """A run of pair events as columns: index ``n``, hidden variable ``lam``, time parameter ``t``.

    Both wings receive the same events; the shared ``t`` is what lets the
    two stations evaluate the global gauge at an identical argument with
    no channel between them. ``n`` is strictly increasing. Index ranges
    of separate runs are kept disjoint by the caller (distinct sample
    spaces per experiment).
    """

    n: np.ndarray
    lam: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.n) == len(self.lam) == len(self.t)):
            raise ValueError("pair stream arrays must have equal length")
        if len(self.n) and np.any(np.diff(self.n) <= 0):
            raise ValueError("pair indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.n)


MODE_CONSTANT = "constant-plus-one"
MODE_RADEMACHER = "rademacher"
MODE_RADEMACHER_RARB = "rademacher-times-rarb"
_MODES = (MODE_CONSTANT, MODE_RADEMACHER, MODE_RADEMACHER_RARB)

#: Largest order whose wave is exact and balanced on the 2^-53 grid that
#: ``sample_pair_stream`` draws ``t`` from.
_MAX_ORDER = 52


def _check_order(j) -> None:
    if not isinstance(j, (int, np.integer)) or not 1 <= j <= _MAX_ORDER:
        raise ValueError(f"Rademacher order must be an integer in [1, {_MAX_ORDER}], got {j!r}")


def rademacher(j: int, t: np.ndarray) -> np.ndarray:
    """Balanced ±1 square wave of order ``j``: (-1)^floor(2^(j+1) t).

    This is sign(sin(2^(j+1) pi t)) away from the sine's zeros; each
    dyadic point k/2^(j+1) takes the value of the interval it starts,
    (-1)^k. Scaling by a power of two is exact in binary64, so the wave
    is exact for every order up to 52. Takes an array of ``t`` in [0, 1)
    and gives an int8 array of the same shape.
    """
    _check_order(j)
    arr = np.asarray(t, dtype=np.float64)
    if arr.size and not (float(arr.min()) >= 0.0 and float(arr.max()) < 1.0):  # NaN fails both
        raise ValueError("t must lie in [0, 1)")
    k = (arr * 2.0 ** (j + 1)).astype(np.int64)  # truncation is floor: the product is >= 0
    k &= 1
    return 1 - 2 * k.astype(np.int8)  # the parity is taken in place, the sign in int8


def rarb_eval(seed: int, t: np.ndarray) -> np.ndarray:
    """Keyed deterministic ±1 factor of ``t``: a hash of (seed, bits of t).

    The hash is the standard splitmix64 finalizer of ``bits(t) ^ seed``;
    the factor is +1 where its lowest bit is set. Stands in for an
    arbitrary extra ±1 gauge component while staying reproducible and
    shareable as part of a key file. Takes an array of ``t`` and gives an
    int8 array of the same shape.
    """
    arr = np.ascontiguousarray(t, dtype=np.float64)
    # In place on one uint64 buffer plus one shift buffer; uint64 arithmetic wraps.
    z = np.bitwise_xor(arr.view(np.uint64), np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    shifted = np.empty_like(z)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z &= np.uint64(1)
    out = z.astype(np.int8)
    out *= 2
    out -= 1
    return out


@dataclass(frozen=True)
class GaugeKey:
    """Shared specification of the global ±1 gauge function of ``t``.

    Modes: ``constant-plus-one`` (identity), ``rademacher`` (order ``j``),
    or ``rademacher-times-rarb`` (Rademacher times a keyed ±1 hash).
    Both wings hold the same key, so they agree on the gauge at every
    ``t`` without communicating.
    """

    mode: str = MODE_RADEMACHER
    j: int = 1
    rarb_seed: Union[int, None] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown gauge mode {self.mode!r}")
        if self.mode != MODE_CONSTANT:
            _check_order(self.j)
        if self.mode == MODE_RADEMACHER_RARB:
            if self.rarb_seed is None or not 0 <= self.rarb_seed < 2**64:  # rarb_eval hashes its low 64 bits
                raise ValueError(f"rademacher-times-rarb mode needs a rarb_seed in [0, 2**64), got {self.rarb_seed}")
        elif self.rarb_seed is not None:
            raise ValueError(f"rarb_seed is only meaningful in {MODE_RADEMACHER_RARB} mode")

    def to_json(self) -> dict:
        return {"v": 1, "mode": self.mode, "j": int(self.j), "rarb_seed": self.rarb_seed}

    @classmethod
    def from_json(cls, obj: dict) -> "GaugeKey":
        """The key ``to_json`` wrote, or ValueError.

        Requires exactly its four keys, ``v`` 1, an int ``j`` and an int or
        null ``rarb_seed`` (a bool is neither), so no other value loads
        under a real key's digest.
        """
        if set(obj) != {"v", "mode", "j", "rarb_seed"}:
            raise ValueError(f"a gauge key has the keys j, mode, rarb_seed and v, got {sorted(obj)}")
        if type(obj["v"]) is not int or obj["v"] != 1:
            raise ValueError(f"unsupported gauge key schema version: {obj['v']!r}")
        if type(obj["j"]) is not int or type(obj["rarb_seed"]) not in (int, type(None)):
            raise ValueError(f"gauge key j {obj['j']!r} is not an int or rarb_seed {obj['rarb_seed']!r} "
                             "is neither an int nor null")
        return cls(mode=obj["mode"], j=obj["j"], rarb_seed=obj["rarb_seed"])

    def digest_hex(self) -> str:
        return hashlib.sha256(_dumps(self.to_json()).encode()).hexdigest()


def gauge_eval(key: GaugeKey, t: np.ndarray) -> np.ndarray:
    """Evaluate the global gauge at an array of ``t``: an int8 array of ±1 of the same shape."""
    if key.mode == MODE_CONSTANT:
        return np.ones(np.shape(t), dtype=np.int8)
    r = rademacher(key.j, t)
    if key.mode == MODE_RADEMACHER:
        return r
    return r * rarb_eval(key.rarb_seed, t)


def derive_subseed(master_seed: int, index: int) -> int:
    """Fixed key-derivation rule for per-experiment sub-seeds.

    Keeps separate setting-pair runs (and separate sweep steps, source
    sessions, ...) on independent, reproducible streams that any process
    can re-derive from the master seed.
    """
    digest = hashlib.sha256(f"{int(master_seed)}/{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Pairs per ``measure_stream`` block: a float64 block (64 KiB) stays under glibc's 128 KiB mmap threshold.
BLOCK_PAIRS = 8192


def _stream_generators(seed: int, count: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The (lam, t) generators of a stream: outputs 0..count-1 and count..2*count-1 of one PCG64."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed).advance(count))


def sample_pair_stream(seed: int, count: int, start: int = 1) -> PairStream:
    """Draw ``count`` pair events: independent uniforms on [0, 1) for lam and t.

    Deterministic given ``seed``; indices run start..start+count-1, which
    lets separate runs hold disjoint index ranges. ``lam`` is outputs
    0..count-1 of the seed's PCG64 sequence and ``t`` outputs
    count..2*count-1; PCG64's jump-ahead lets any block be drawn alone.
    """
    lam_rng, t_rng = _stream_generators(seed, count)
    if start < 1:
        raise ValueError(f"start index must be >= 1, got {start}")
    return PairStream(n=np.arange(start, start + count, dtype=np.int64), lam=lam_rng.random(count),
                      t=t_rng.random(count))


def outcome_columns(
    lam: np.ndarray, t: np.ndarray, key: GaugeKey, settings: Sequence[Setting]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The outcome rule for a whole stream: the gauge plus one A(x) column per setting.

    ``lam`` and ``t`` are arrays of one shape; the result is int8 arrays
    of that shape, ``(g, (A(x1), A(x2), ...))``.
    ``g = g(t)`` is the left wing's outcome. ``A(x)`` is ``+g`` where
    ``lam <= (1 + x.b2)/2`` (inclusive) and ``-g`` elsewhere; a right wing
    set to ``x`` reports ``-A(x)``. The gauge is evaluated once however
    many settings are given.
    """
    g = gauge_eval(key, t)
    # int8 arithmetic on the comparison: 2 * 1 - 1 = +1 where lam <= threshold, 2 * 0 - 1 = -1 elsewhere.
    return g, tuple((np.less_equal(lam, 0.5 * (1.0 + x.b2)).view(np.int8) * 2 - 1) * g for x in settings)


def measure_left(a: Setting, events: PairStream, key: GaugeKey) -> np.ndarray:
    """Left-wing outcomes, an int8 column: the gauge value at each event's ``t``, for every ``lam``.

    The setting argument is accepted (keeping the conventional two-wing
    signature) but never read: runs are conditioned so the left magnet
    is the [1, 0] reference direction.
    """
    if not isinstance(a, Setting):
        raise TypeError("a must be a Setting")
    return gauge_eval(key, events.t)


def measure_right(b: Setting, events: PairStream, key: GaugeKey) -> np.ndarray:
    """Right-wing outcomes, an int8 column, from the local setting, the events and the key only.

    ``-A(b)`` per event, so equal settings are anti-correlated with
    certainty.
    """
    _, (a_b,) = outcome_columns(events.lam, events.t, key, (b,))
    return -a_b


def measure_pairs(b: Setting, events: PairStream, key: GaugeKey) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized run of both wings over a pair stream.

    Returns int8 arrays (left, right) = (g, -A(b)): the columns of
    measure_left and measure_right, with the gauge evaluated once.
    """
    g, (a_b,) = outcome_columns(events.lam, events.t, key, (b,))
    return g, -a_b


def measure_stream(b: Setting, seed: int, count: int, key: GaugeKey) -> tuple[np.ndarray, np.ndarray]:
    """``measure_pairs(b, sample_pair_stream(seed, count), key)``, drawn and measured block by block.

    Fills the int8 columns (left, right) in blocks of ``BLOCK_PAIRS`` pairs through two reused
    float64 buffers, one ``outcome_columns`` call per block: no float column is built at full length.
    """
    lam_rng, t_rng = _stream_generators(seed, count)
    left, right = np.empty(count, dtype=np.int8), np.empty(count, dtype=np.int8)
    lam, t = np.empty((2, min(count, BLOCK_PAIRS)))
    for lo in range(0, count, BLOCK_PAIRS):  # a slice past the end stops there: the last block is short
        g, (a_b,) = outcome_columns(lam_rng.random(out=lam[:count - lo]), t_rng.random(out=t[:count - lo]), key, (b,))
        left[lo:lo + BLOCK_PAIRS] = g
        np.negative(a_b, out=right[lo:lo + BLOCK_PAIRS])
    return left, right
