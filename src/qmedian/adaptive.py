"""Drivers for when the imbalance magnitude is unknown in advance.

The adaptive estimate starts from the coarsest prior bound (0.1) and keeps
tightening it until the estimate is comfortably resolved at the current
scale: an estimate is accepted as soon as its sign is decided and
|est| > 0.2 * eps0 (or the fraction overflows the bracket, which means the
scale is already right).  Otherwise the bound halves, down to eps_min.

``median_search`` bisects on the threshold value: the adaptive estimate's
sign says whether the candidate threshold sits above or below the point of
balance, exactly like a comparison in ordinary binary search.  Only a
decided positive sign moves the upper end; an undecided one counts as
"not more than half below".  The loop runs ceil(log2(span/delta)) steps,
narrowing the bracket below the resolution delta, and returns the last
midpoint probed.
"""

from __future__ import annotations

import math
from typing import Tuple

from .dataset import Dataset
from .errors import ParameterError
from .estimator import ACCEPT_FACTOR, EstimateRecord, eps_est
from .rng import derive_seed

_START_EPS0 = 0.1


def _eps_est_adaptive_counted(
    d: Dataset,
    mu: float,
    eps_min: float,
    theta: float = 0.1,
    kappa: float = 3.0,
    mode: str = "exact",
    seed: int = 0,
) -> Tuple[EstimateRecord, int]:
    """Adaptive estimate at mu: the record from the accepting scale, or from
    the finest one when none resolved, and the number of eps_est calls."""
    if not (0.0 < eps_min < _START_EPS0):
        raise ParameterError(f"eps_min must be in (0, {_START_EPS0}), got {eps_min}")
    eps0 = _START_EPS0
    calls = 0
    while True:
        rec = eps_est(
            d, mu, eps0=eps0, theta=theta, kappa=kappa, mode=mode,
            seed=derive_seed(seed, calls),
        )
        calls += 1
        if rec.sign is not None and (
            rec.verdict != "ok" or abs(rec.eps_hat) > ACCEPT_FACTOR * eps0
        ):
            return rec, calls
        if eps0 / 2.0 <= eps_min:
            return rec, calls
        eps0 /= 2.0


def bisection_steps(span: float, delta: float) -> int:
    """Number of halvings taking a bracket of width span below delta."""
    if not span > 0.0 or not delta > 0.0:
        raise ParameterError("span and delta must be positive")
    if span <= delta:
        return 0
    return max(0, math.ceil(math.log2(span / delta) - 1e-9))


def median_search_counted(
    d: Dataset,
    vmin: float,
    vmax: float,
    delta: float,
    eps_min: float,
    theta: float = 0.1,
    kappa: float = 3.0,
    mode: str = "exact",
    seed: int = 0,
) -> Tuple[float, int, int]:
    """Returns (mu_hat, bisection steps, total estimation calls)."""
    if not vmin < vmax:
        raise ParameterError(f"need min < max, got {vmin} >= {vmax}")
    if not delta > 0.0:
        raise ParameterError(f"resolution must be > 0, got {delta}")
    steps = bisection_steps(vmax - vmin, delta)
    lower, upper = float(vmin), float(vmax)
    mu = 0.5 * (lower + upper)
    calls = 0
    for step in range(steps):
        mu = 0.5 * (lower + upper)
        rec, c = _eps_est_adaptive_counted(
            d, mu, eps_min, theta, kappa, mode,
            derive_seed(seed, step),
        )
        calls += c
        if rec.sign == 1:
            upper = mu  # more than half the data sits below mu
        else:
            lower = mu
    return mu, steps, calls


def median_search(
    d: Dataset,
    vmin: float,
    vmax: float,
    delta: float,
    eps_min: float,
    theta: float = 0.1,
    kappa: float = 3.0,
    mode: str = "exact",
    seed: int = 0,
) -> float:
    """Median estimate: binary search on the threshold driven by the sign
    of the adaptive imbalance estimate, to resolution delta.

    The count of values below the result deviates from N/2 by about
    eps_min*N plus whatever lies inside the final delta-wide bracket.
    """
    mu, _, _ = median_search_counted(
        d, vmin, vmax, delta, eps_min, theta, kappa, mode, seed
    )
    return mu
