"""Simulated quantum register: 2^n complex amplitudes and its transforms.

The register holds unit total probability (sum of |amplitude|^2 == 1).
Four unitaries act on it:

  * ``walsh_hadamard`` -- entries 2^(-n/2) * (-1)^(bitwise dot of indices),
    applied as n in-place butterfly passes; its own inverse.
  * ``diffusion``      -- inversion about the mean: a' = 2*mean(a) - a.
  * ``shift``          -- a' = (1+i)*mean(a) - i*a.
  * ``conditional_phase`` -- multiply amplitudes on a mask by e^(i*angle).

diffusion and shift are applied via their one-pass mean forms (O(N)); the
equivalent dense factorizations live in ``qmedian.dense`` as test oracles.

All transforms mutate the passed state in place and return it; callers that
need the original must copy first.  The mean is always reduced with numpy's
pairwise summation over the natural index order, so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .rng import RandomStream

MAX_BITS = 24

_HALF_PI = math.pi / 2


@dataclass
class StateVector:
    """n-bit register: amps has length 2^n, complex128."""

    n: int
    amps: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    @property
    def size(self) -> int:
        return 1 << self.n

    def norm_sq(self) -> float:
        a = self.amps
        return float(np.sum(a.real * a.real + a.imag * a.imag))


def _check_bits(n: int) -> None:
    if not (1 <= n <= MAX_BITS):
        raise ParameterError(f"bit count must be in [1, {MAX_BITS}], got {n}")


def as_mask(n: int, mask: np.ndarray) -> np.ndarray:
    """Check that mask is a boolean array of length 2^n and return it;
    anything else raises IndexError."""
    size = 1 << n
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (size,)):
        raise IndexError(f"mask must be a boolean array of length {size}")
    return mask


def uniform_state(n: int) -> StateVector:
    """Equal-superposition register: every amplitude 2^(-n/2)."""
    _check_bits(n)
    amp = math.sqrt(1.0 / (1 << n))
    return StateVector(n, np.full(1 << n, amp, dtype=np.complex128))


def walsh_hadamard(state: StateVector) -> StateVector:
    """In-place butterfly transform, one pass per bit, then a single
    2^(-n/2) rescale (mathematically identical to scaling every pass)."""
    a = state.amps
    for bit in range(state.n):
        blocks = a.reshape(-1, 2, 1 << bit)
        lo = blocks[:, 0, :].copy()
        hi = blocks[:, 1, :]
        blocks[:, 0, :] = lo + hi
        blocks[:, 1, :] = lo - hi
    a *= math.sqrt(1.0 / (1 << state.n))
    return state


def conditional_phase(state: StateVector, mask, angle: float) -> StateVector:
    """Multiply amplitudes at mask indices by e^(i*angle).

    angle == pi and angle == pi/2 take exact paths (sign flip, *i) so that
    those rotations introduce no rounding at all.
    """
    m = as_mask(state.n, mask)
    a = state.amps
    if angle == 0.0:
        return state
    if angle == math.pi:
        a[m] = -a[m]
    elif angle == _HALF_PI:
        a[m] = a[m] * 1j
    else:
        a[m] = a[m] * complex(math.cos(angle), math.sin(angle))
    return state


def diffusion(state: StateVector) -> StateVector:
    """Inversion about the mean: a' = 2*mean(a) - a."""
    a = state.amps
    m = a.mean()
    np.subtract(2.0 * m, a, out=a)
    return state


def shift(state: StateVector) -> StateVector:
    """a' = (1+i)*mean(a) - i*a."""
    a = state.amps
    m = a.mean()
    np.subtract((1 + 1j) * m, 1j * a, out=a)
    return state


def probability_of(state: StateVector, mask) -> float:
    """Total probability of the masked basis states."""
    m = as_mask(state.n, mask)
    a = state.amps[m]
    return float(np.sum(a.real * a.real + a.imag * a.imag))


def _cdf(state: StateVector) -> np.ndarray:
    a = state.amps
    cdf = np.cumsum(a.real * a.real + a.imag * a.imag)
    if not cdf[-1] > 0.0:
        raise NumericalError("cannot sample a zero state")
    return cdf


def sample(state: StateVector, rng: RandomStream) -> int:
    """Draw one basis index with probability |a_p|^2.

    One uniform u in [0,1); the result is the first index whose cumulative
    probability strictly exceeds u, the last index absorbing any rounding
    deficit at the top of the CDF.
    """
    cdf = _cdf(state)
    u = rng.next_float()
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, state.size - 1)


def sample_many(state: StateVector, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized ``sample`` for a batch of pre-drawn uniforms."""
    cdf = _cdf(state)
    idx = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(idx, state.size - 1)
