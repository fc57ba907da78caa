"""Classical Monte Carlo reference: estimate the imbalance by direct
uniform sampling of the dataset.

With m independent draws, f_hat is the fraction below the threshold and
2*f_hat - 1 estimates the imbalance with standard error ~ 1/sqrt(m); the
amplified experiment reaches the same precision with ~ 1/eps loop passes
instead of ~ 1/eps^2 draws, which is the contrast this module exists to
measure.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dataset import ThresholdOracle
from .errors import ParameterError
from .rng import SALT_BASELINE, bulk_uniforms, derive_seed

# Draws per block.  A power of two, so block starts are multiples of it and
# draw start + j of the stream seeded s is draw j of the stream seeded
# s ^ start: (start + j) ^ s == j ^ (s ^ start) for j < _BLOCK.
_BLOCK = 1 << 16


def classical_estimate(o: ThresholdOracle, m: int, seed: int) -> Tuple[float, float]:
    """m uniform draws with replacement: returns (f_hat, 2*f_hat - 1).

    The hits are counted in blocks of _BLOCK draws, so memory stays flat
    in m.
    """
    if m < 1:
        raise ParameterError(f"sample count must be >= 1, got {m}")
    stream = derive_seed(seed, SALT_BASELINE)
    hits = 0
    for start in range(0, m, _BLOCK):
        u = bulk_uniforms(stream ^ start, min(_BLOCK, m - start))
        idx = np.minimum((u * o.size).astype(np.int64), o.size - 1)
        hits += int(np.count_nonzero(o.below_mask[idx]))
    f_hat = hits / m
    return f_hat, 2.0 * f_hat - 1.0

