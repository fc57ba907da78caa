"""Datasets, thresholds, and the below/above partition.

A dataset is 2^n finite reals, one value per basis state.  A threshold mu
splits it: values strictly below mu are "below"; values equal to mu count
as above (ties break upward so the two-sided partition is always exact).
The imbalance is

    eps = (N_below - N_above) / N

which is exactly representable (the denominator is a power of two) and
always lies on the grid {2j/N - 1 : j = 0..N}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetParseError, DatasetSizeError, ParameterError
from .rng import SALT_PERM, SALT_VALUES, bulk_uniforms, derive_seed
from .statevector import MAX_BITS, _check_bits, as_mask


@dataclass(frozen=True)
class Dataset:
    n: int
    values: np.ndarray  # float64, length 2^n

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class ThresholdOracle:
    """The below/above partition of a dataset at threshold mu."""

    n: int
    mu: float
    below_mask: np.ndarray = field(repr=False)  # bool, length 2^n
    n_below: int
    n_above: int
    eps: float

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def above_mask(self) -> np.ndarray:
        return ~self.below_mask


def _bits_for(count: int) -> int:
    n = count.bit_length() - 1
    if count <= 0 or (1 << n) != count:
        raise DatasetSizeError(f"dataset length must be a power of two, got {count}")
    if n < 1 or n > MAX_BITS:
        raise DatasetSizeError(f"dataset length 2^{n} outside supported range")
    return n


def dataset_from_values(values) -> Dataset:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DatasetSizeError("dataset must be one-dimensional")
    n = _bits_for(arr.size)
    if not np.all(np.isfinite(arr)):
        raise DatasetParseError("dataset contains non-finite values")
    return Dataset(n, arr)


def load_dataset(text: str) -> Dataset:
    """Parse newline-delimited decimals (one value per line).

    The fast path parses every line at once; blank or malformed lines
    (and empty input) fall back to the line-by-line loop, which skips the
    blanks and names the first bad line.
    """
    try:
        arr = np.fromiter(map(float, text.splitlines()), np.float64)
    except ValueError:
        arr = np.empty(0)
    if arr.size:
        return dataset_from_values(arr)
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DatasetParseError(f"line {lineno}: not a decimal: {line!r}") from None
    if not values:
        raise DatasetSizeError("dataset is empty")
    return dataset_from_values(values)


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dataset(fh.read())


def dataset_to_text(d: Dataset) -> str:
    return ("%.17g\n" * d.values.size) % tuple(d.values.tolist())


def make_oracle(d: Dataset, mu: float) -> ThresholdOracle:
    if not np.isfinite(mu):
        raise ParameterError(f"threshold must be finite, got {mu}")
    return oracle_from_mask(d.n, d.values < mu, mu)


def oracle_from_mask(n: int, below_mask, mu: float = 0.0) -> ThresholdOracle:
    """Oracle defined directly by its below set (no backing values).

    Useful for exercising the register on a chosen partition; mu is carried
    for bookkeeping only.
    """
    below = as_mask(n, below_mask)
    size = 1 << n
    n_below = int(np.count_nonzero(below))
    n_above = size - n_below
    eps = (n_below - n_above) / size
    return ThresholdOracle(n, float(mu), below, n_below, n_above, eps)


def rank_below(d: Dataset, mu: float) -> int:
    """Count of values strictly below mu."""
    return int(np.count_nonzero(d.values < mu))


def synth_dataset(n: int, eps_target: float, mu: float, seed: int):
    """Synthesize a dataset whose imbalance at mu is as close as the grid
    allows to eps_target.  Returns (Dataset, achieved_eps).

    Below values are drawn from [mu-1, mu), the rest from [mu, mu+1);
    positions are shuffled deterministically from the seed (values are
    sorted by per-index random keys).
    """
    _check_bits(n)
    if not (-1.0 <= eps_target <= 1.0):
        raise ParameterError(f"eps target must lie in [-1, 1], got {eps_target}")
    size = 1 << n
    n_below = int(round(size * (1.0 + eps_target) / 2.0))
    n_below = min(max(n_below, 0), size)

    u = bulk_uniforms(derive_seed(seed, SALT_VALUES), size)
    values = np.empty(size, dtype=np.float64)
    values[:n_below] = mu - 1.0 + u[:n_below]
    values[n_below:] = mu + u[n_below:]
    # clamp pathological rounding: a below-draw must stay strictly below mu
    np.minimum(values[:n_below], np.nextafter(mu, -np.inf), out=values[:n_below])

    keys = bulk_uniforms(derive_seed(seed, SALT_PERM), size)
    order = np.argsort(keys, kind="stable")
    d = Dataset(n, values[order])
    achieved = (2 * n_below - size) / size
    return d, achieved
