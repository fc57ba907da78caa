"""Deterministic pseudo-random numbers (splitmix64).

Every random quantity in the package comes from this one generator so that
runs are bit-for-bit reproducible across platforms and languages:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state;  z ^= z>>30;  z *= 0xBF58476D1CE4E5B9 (mod 2^64)
    z ^= z>>27;  z *= 0x94D049BB133111EB (mod 2^64);  z ^= z>>31

A uniform double in [0, 1) is the top 53 bits: (z >> 11) * 2^-53.

Independent sub-streams are keyed by index: the stream for item j of a run
seeded with s starts from the splitmix64 output of state (s XOR j).  This
keeps per-sample draws order-independent and safely parallelizable.  The
vectorized forms mix a whole range of sub-streams in one pass of uint64
array arithmetic: ``bulk_uniforms`` returns their uniforms, and
``bernoulli_counts`` counts the Bernoulli hits of consecutive blocks of
them (one block per probability), so both arms of a sign test cost one pass.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53


def mix64(state: int) -> int:
    """One splitmix64 output for the given state (state advance + mix)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


class RandomStream:
    """Sequential splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = mix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return z

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _TO_UNIT


def derive_seed(seed: int, salt: int) -> int:
    """Seed for the sub-stream keyed by ``salt`` under master ``seed``."""
    return mix64((seed ^ salt) & _MASK64)


# The mix's constants as 0-d uint64 arrays, built once: a ufunc dispatches
# faster on a 0-d array operand than on an np.uint64 scalar, and
# np.uint64(...) per call costs more than the arithmetic on a short array.
_U_GOLDEN = np.array(_GOLDEN, dtype=np.uint64)
_U_MIX1 = np.array(_MIX1, dtype=np.uint64)
_U_MIX2 = np.array(_MIX2, dtype=np.uint64)
_U30, _U27, _U31, _U11 = (np.array(k, dtype=np.uint64) for k in (30, 27, 31, 11))


def _mix(z: np.ndarray) -> np.ndarray:
    """``mix64`` on every element of z, in place (uint64 wraps mod 2^64)."""
    z += _U_GOLDEN
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def _mixed_words(seed: int, count: int) -> np.ndarray:
    """Raw first words of the sub-streams 0 .. count-1 of seed.

    Word j equals RandomStream(derive_seed(seed, j)).next_u64(); the loop is
    fused into uint64 array arithmetic (which wraps mod 2^64).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    states = np.arange(count, dtype=np.uint64)
    states ^= np.uint64(seed & _MASK64)
    return _mix(_mix(states))


def bulk_uniforms(seed: int, count: int) -> np.ndarray:
    """First uniform of each indexed sub-stream, vectorized.

    Element j equals RandomStream(derive_seed(seed, j)).next_float() exactly.
    """
    return (_mixed_words(seed, count) >> _U11).astype(np.float64) * _TO_UNIT


def bernoulli_counts(seed: int, count: int, ps: Sequence[float]) -> Tuple[int, ...]:
    """Bernoulli hit counts of len(ps) consecutive blocks of count sub-streams.

    Block i is the sub-streams i*count .. (i+1)*count-1 of seed, and its
    count is exactly ``count_nonzero(bulk_uniforms(seed, len(ps)*count)
    [i*count:(i+1)*count] < ps[i])``, compared on the raw words instead:
    with u = (z >> 11) * 2^-53 and c = ceil(p * 2^53) (p * 2^53 is exact),
    u < p iff (z >> 11) < c iff z < c << 11, so no uniform is ever
    converted to a double.  All blocks come from one pass of the mix.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    z = _mixed_words(seed, count * len(ps))
    hits = []
    for i, p in enumerate(ps):
        if p >= 1.0:  # every u < 1 <= p; c << 11 would not fit in 64 bits
            hits.append(count)
            continue
        c = math.ceil(p * 2.0 ** 53) if p > 0.0 else 0
        hits.append(int(np.count_nonzero(z[i * count:(i + 1) * count] < np.uint64(c << 11))))
    return tuple(hits)


# Fixed salts for the package's named sub-streams (arbitrary odd constants).
# Master seeds are always scrambled through one of these before keying
# per-item sub-streams: seed XOR j is a bijection on blocks of indices, so
# two small unscrambled seeds would reuse one another's sub-streams in
# permuted order and permutation-invariant statistics (hit counts) would
# not vary with the seed at all.
SALT_VALUES = 0x56414C5545530101   # synthetic dataset values
SALT_PERM = 0x5045524D5554450B    # synthetic dataset position shuffle
SALT_ARMS = 0x41524D5349474E11    # padded-register arm pairs for the sampled sign
SALT_SAMPLES = 0x53414D504C450A0D  # measurement draws from the final state
SALT_BASELINE = 0x434C41535349430F  # classical Monte Carlo draws
