"""Median search on the threshold: regula falsi on the imbalance each
comparison reads, safeguarded so that it never costs more than twice
bisection.

Each step asks one question at a probe mu inside the bracket: do more than
half of the values lie below it?  ``estimator.more_than_half_below``
answers it, like a comparison in ordinary binary search, or answers None:
it cannot tell.  The search stops on None, at a bracket no wider than the
resolution delta, or at a midpoint not strictly inside the bracket
(adjacent doubles), and returns the last probe it reached.  Exact mode
cannot tell only at a balanced split, eps == 0, a median.  Sampled mode
cannot tell when every rung of the arm ladder stays undecided down to
eps_min: |eps| < ACCEPT_FACTOR*eps_min at mu with the test's confidence,
within ACCEPT_FACTOR*eps_min*N/2 ranks of the median.

Each end carries the eps the search knows there: -1 at vmin, +1 at vmax,
then the eps of the comparison that moved it: exact mode's partition
count, or in sampled mode the deciding rung's linear reading of its hit
counts (``estimator._arm_test``), which has the answer's sign and is exact
at |eps| = ACCEPT_FACTOR*delta.  The probe is where the chord through them
crosses 0, w*lower + (1-w)*upper with w = eps_upper/(eps_upper -
eps_lower), a form that cannot overflow, and an end kept twice running has
its eps halved (Illinois).  After a step that kept a share k > 1/2 of its
bracket, w is clamped to [1 - 1/(2k), 1/(2k)]: the midpoint after a step
that kept it all.  The probe is also the midpoint when the chord's root is
not strictly inside the bracket.  So the first probe is the midpoint, and
every two steps at least halve the bracket, however far a sampled reading
is off: with delta = 0 the stop rule holds on any value scale, in at most
about 4,200 steps, twice the halvings that span the finite doubles down to
their smallest spacing.  The eps only places probes; every move of an end
follows the comparison's answer, so the stop rule and its rank bound do
not depend on it.

A sampled step starts the ladder at the finest rung the bracket allows,
not at the top.  The rung that decided at a bracket end, i > 0, bounds that
end's |eps| below ACCEPT_FACTOR times rung i-1's offset: rung i-1 stayed
undecided there, or the bracket bounded it already.  eps(mu) does not
decrease as mu grows, so the probe's eps lies between its ends' and obeys
the looser of their two bounds; that is the bound a walk from the top
reaches before it runs the smaller of the two ends' rungs, so the step
starts there.  vmin and vmax carry rung 0.  An end that moves inward keeps
the larger of its old rung and the one that moved it: the new end's eps has
the decided sign and lies between 0 and the old end's.  Each bound holds
with the test's confidence, 1 - 2*exp(-2*KAPPA^2) (``estimator.KAPPA``),
the argument by which a finer rung trusts its sign within one walk, and
every rung that runs draws from its own sub-stream exactly as in a walk
from the top: the deciding rung reads the same counts, so the same eps,
and the next probe lands where a walk from the top would put it.
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
    """Median estimate: search on the threshold with the module's probes
    and stop rule (delta = 0: no width stop).  Returns (mu_hat, steps run,
    comparisons made), one comparison per step; vmin == vmax makes none.

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
    eps_lower, eps_upper = -1.0, 1.0  # eps each end carries, None if unknown
    mu = 0.5 * lower + 0.5 * upper  # halves first: lower + upper may overflow
    steps, side, kept = 0, 0, 0.5  # the end the last step moved, the share it kept
    while upper - lower > delta:
        w = 0.5  # the probe's weight on lower
        if eps_lower is not None and eps_upper is not None:
            w = eps_upper / (eps_upper - eps_lower)  # where the chord crosses 0
            w = min(max(w, 1.0 - 0.5 / kept), 0.5 / kept)  # halve over two steps
        mu = w * lower + (1.0 - w) * upper
        if not lower < mu < upper:
            w, mu = 0.5, 0.5 * lower + 0.5 * upper
            if not lower < mu < upper:
                break  # adjacent doubles: the bracket cannot shrink
        below, rung, eps = more_than_half_below(d, mu, eps_min, mode, derive_seed(seed, steps),
                                                min(rung_lower, rung_upper))
        steps += 1
        if below is None:
            break  # the comparison cannot tell which side holds more than half
        if below:
            if side > 0 and eps_lower is not None:
                eps_lower *= 0.5  # lower kept twice running (Illinois)
            upper, rung_upper, eps_upper, side, kept = mu, max(rung_upper, rung), eps, 1, 1.0 - w
        else:
            if side < 0 and eps_upper is not None:
                eps_upper *= 0.5
            lower, rung_lower, eps_lower, side, kept = mu, max(rung_lower, rung), eps, -1, w
    return mu, steps, steps
