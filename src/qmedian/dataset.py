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

from collections.abc import Iterable
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


# characters parsed at a time: the loader holds one block's line strings,
# not one string per line of the whole file
_BLOCK = 1 << 18


def _whole_lines(chunks):
    """Re-cut text chunks after their last "\\n", so every block holds whole
    lines and the blocks' ``splitlines()`` are the text's."""
    rest = []  # a list, so a line longer than a block is copied once
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            rest.append(chunk[:cut])
            yield "".join(rest)
            rest = []
        rest.append(chunk[cut:])
    yield "".join(rest)


def load_dataset(text: str | Iterable[str]) -> Dataset:
    """Parse newline-delimited decimals (one value per line), given as one
    string or as an iterable of string chunks (a file read block by block).

    The text is cut into blocks of whole lines.  Each block parses at once;
    a block with a blank or malformed line runs the line-by-line loop
    instead, which skips the blanks and names the first bad line by its
    number in the whole text.
    """
    chunks = text
    if isinstance(text, str):
        chunks = (text[i:i + _BLOCK] for i in range(0, len(text), _BLOCK))
    pieces = []
    lineno = 0
    for block in _whole_lines(chunks):
        lines = block.splitlines()
        try:
            pieces.append(np.fromiter(map(float, lines), np.float64, len(lines)))
        except ValueError:
            values = []
            for i, raw in enumerate(lines, start=lineno + 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    raise DatasetParseError(f"line {i}: not a decimal: {line!r}") from None
            pieces.append(np.array(values, dtype=np.float64))
        lineno += len(lines)
    arr = np.concatenate(pieces)
    if not arr.size:
        raise DatasetSizeError("dataset is empty")
    return dataset_from_values(arr)


def read_dataset(path) -> Dataset:
    """``load_dataset`` on a UTF-8 file, read one block at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_dataset(iter(lambda: fh.read(_BLOCK), ""))
        except UnicodeDecodeError:
            raise DatasetParseError(f"{path}: not UTF-8 text") from None


def dataset_to_text(d: Dataset) -> str:
    return ("%.17g\n" * d.values.size) % tuple(d.values.tolist())


def make_oracle(d: Dataset, mu: float) -> ThresholdOracle:
    if not np.isfinite(mu):
        raise ParameterError(f"threshold must be finite, got {mu}")
    return oracle_from_mask(d.n, d.values < mu)


def oracle_from_mask(n: int, below_mask) -> ThresholdOracle:
    """Oracle defined directly by its below set (no backing values), for
    exercising the register on a chosen partition."""
    below = as_mask(n, below_mask)
    size = 1 << n
    n_below = int(np.count_nonzero(below))
    n_above = size - n_below
    eps = (n_below - n_above) / size
    return ThresholdOracle(n, below, n_below, n_above, eps)


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
