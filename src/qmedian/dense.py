"""Dense-matrix oracles for small registers (n <= 6).

These build the transforms as explicit 2^n x 2^n matrices straight from
their entry definitions, for cross-checking the streaming implementations:

  F_pq = 2^(-n/2) * (-1)^(popcount(p & q))
  D_pq = 2/N (p != q),          D_pp = -1 + 2/N
  S_pq = 1/N + i/N (p != q),    S_pp = 1/N - i(N-1)/N
  T = diag(1, -1, ..., -1)      R = diag(1, -i, ..., -i)

with the factorization identities F T F == D and F R F == S.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

MAX_DENSE_BITS = 6


def _check(n: int) -> None:
    if not (1 <= n <= MAX_DENSE_BITS):
        raise ParameterError(
            f"dense oracles are limited to n in [1, {MAX_DENSE_BITS}], got {n}"
        )


def dense_f(n: int) -> np.ndarray:
    _check(n)
    size = 1 << n
    scale = math.sqrt(1.0 / size)
    out = np.empty((size, size), dtype=np.complex128)
    for p in range(size):
        for q in range(size):
            out[p, q] = scale * (-1.0) ** bin(p & q).count("1")
    return out


def dense_t(n: int) -> np.ndarray:
    _check(n)
    d = -np.ones(1 << n, dtype=np.complex128)
    d[0] = 1.0
    return np.diag(d)


def dense_r(n: int) -> np.ndarray:
    _check(n)
    d = np.full(1 << n, -1j, dtype=np.complex128)
    d[0] = 1.0
    return np.diag(d)


def dense_d(n: int) -> np.ndarray:
    _check(n)
    size = 1 << n
    out = np.full((size, size), 2.0 / size, dtype=np.complex128)
    np.fill_diagonal(out, -1.0 + 2.0 / size)
    return out


def dense_s(n: int) -> np.ndarray:
    _check(n)
    size = 1 << n
    out = np.full((size, size), 1.0 / size + 1j / size, dtype=np.complex128)
    np.fill_diagonal(out, 1.0 / size - 1j * (size - 1) / size)
    return out

