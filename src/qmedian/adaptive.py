"""Median search by bisection on the threshold.

Each step asks one question at the midpoint mu: do more than half of the
values lie below it?  ``estimator.more_than_half_below`` answers it, like a
comparison in ordinary binary search, or answers None: it cannot tell.
The search stops on None, at a bracket no wider than the resolution delta,
or at a midpoint not strictly inside the bracket (adjacent doubles), and
returns the last midpoint it reached.  Exact mode cannot tell only at a
balanced split, eps == 0, a median.  Sampled mode cannot tell when every
rung of the arm ladder stays undecided down to eps_min: |eps| <
ACCEPT_FACTOR*eps_min at mu with the test's confidence, within
ACCEPT_FACTOR*eps_min*N/2 ranks of the median.  With delta = 0 that holds
on any value scale, in at most about 2,100 halvings (the span of the
finite doubles down to their smallest spacing).

A sampled step starts the ladder at the finest rung the bracket allows,
not at the top.  The rung that decided at a bracket end, i > 0, bounds that
end's |eps| below ACCEPT_FACTOR times rung i-1's offset: rung i-1 stayed
undecided there, or the bracket bounded it already.  eps(mu) does not
decrease as mu grows, so the midpoint's eps lies between its ends' and
obeys the looser of their two bounds; that is the bound a walk from the top
reaches before it runs the smaller of the two ends' rungs, so the step
starts there.  vmin and vmax carry rung 0.  An end that moves inward keeps
the larger of its old rung and the one that moved it: the new end's eps has
the decided sign and lies between 0 and the old end's.  Each bound holds
with the test's confidence, 1 - 2*exp(-2*KAPPA^2) (``estimator.KAPPA``),
the argument by which a finer rung trusts its sign within one walk, and
every rung that runs draws from its own sub-stream exactly as in a walk
from the top.
"""

from __future__ import annotations

from typing import Tuple

from .dataset import Dataset
from .driver import MODES
from .errors import ParameterError
from .estimator import (
    eps_est,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS and tests/test_tracing.py resolve it
    more_than_half_below,
)
from .rng import derive_seed


def median_search_counted(
    d: Dataset,
    vmin: float,
    vmax: float,
    delta: float,
    eps_min: float,
    mode: str = "exact",
    seed: int = 0,
) -> Tuple[float, int, int]:
    """Median estimate: binary search on the threshold under the module's
    stop rule (delta = 0: no width stop).  Returns (mu_hat, bisection steps
    run, comparisons made), one comparison per step; vmin == vmax makes none.

    The count of values below mu_hat deviates from N/2 by at most
    ACCEPT_FACTOR*eps_min*N/2 (sampled mode, with the arm test's
    confidence; 0 in exact mode) plus the values tied at the final
    bracket's lower end, or all of a bracket that delta > 0 cut short.
    """
    if not vmin <= vmax:
        raise ParameterError(f"need min <= max, got {vmin} > {vmax}")
    if not delta >= 0.0:
        raise ParameterError(f"resolution must be >= 0, got {delta}")
    # below 0.1 the stop rule keeps mu within 0.01*N ranks of the median
    if not 0.0 < eps_min < 0.1:
        raise ParameterError(f"eps_min must be in (0, 0.1), got {eps_min}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    lower, upper = float(vmin), float(vmax)
    if lower == upper:
        return lower, 0, 0
    rung_lower = rung_upper = 0  # first ladder rung each end allows
    mu = 0.5 * lower + 0.5 * upper  # halves first: lower + upper may overflow
    steps = 0
    while upper - lower > delta:
        mu = 0.5 * lower + 0.5 * upper
        if not lower < mu < upper:
            break  # adjacent doubles: the bracket cannot shrink
        below, rung = more_than_half_below(d, mu, eps_min, mode, derive_seed(seed, steps),
                                           min(rung_lower, rung_upper))
        steps += 1
        if below is None:
            break  # the comparison cannot tell which side holds more than half
        if below:
            upper, rung_upper = mu, max(rung_upper, rung)
        else:
            lower, rung_lower = mu, max(rung_lower, rung)
    return mu, steps, steps

