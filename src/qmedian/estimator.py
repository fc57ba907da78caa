"""Turning a measured below-threshold fraction into a signed imbalance.

The amplified fraction f = (1/2)(1+eps)|k_beta|^2 depends on the imbalance
magnitude only to leading order, so estimation proceeds in three stages:

1. fit the magnitude on a branch m -> f(sign*m, beta) by a bracketed
   secant (Illinois) iteration, with an interval from the Hoeffding band
   f_hat +- kappa*sqrt(1/alpha);
2. resolve the sign.  Exact mode reads it off the partition counts before
   any fit.  Sampled mode fits the positive branch first; once the
   magnitude clears its confidence half-width, a classical probe of the
   unamplified below probability (1 + eps)/2, gated at a fifth of eps0,
   decides the sign, and a magnitude inside its noise leaves it undecided;
3. fit a negative imbalance on the negative branch m -> f(-m, beta), which
   removes the small odd-order asymmetry between f(+eps) and f(-eps).
   Both branches are monotone on the same bracket [0, eps0].  Exact mode
   fits only the sign's branch, once.  Sampled mode refits there, and
   keeps the positive fit when sampling noise puts the fraction between
   f(-eps0) and f(+eps0).

An imbalance beyond the prior bound eps0 is a verdict, not an error (the
adaptive driver accepts the scale): in exact mode when the partition has
|eps| > eps0, in sampled mode when the fraction overflows the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .baseline import classical_estimate
from .dataset import Dataset, ThresholdOracle, make_oracle
from .driver import RunPlan, choose_alpha, choose_beta, run_experiment
from .errors import FractionOutOfRange, ParameterError
from .model import predicted_fraction
from .rng import SALT_PROBE, derive_seed

BRACKET_TOL = 1e-12

# Both branches m -> f(+m, beta) and m -> f(-m, beta) peak near
# beta*m ~ 0.53..0.79; each is verified strictly increasing on
# [0, MONOTONE_CAP/beta] for every beta up to 200, which is the widest
# bracket any caller here uses.
MONOTONE_CAP = 0.45

# Forgives rounding at the very top of a bracket; a genuinely out-of-range
# fraction overshoots by orders of magnitude more.
_TOP_TOL = 1e-9

_SLACK = 1e-9

# Smallest imbalance magnitude the adaptive driver accepts, as a fraction of
# the scale bound; the sign probe must still resolve it.
ACCEPT_FACTOR = 0.2


@dataclass(frozen=True)
class EstimateRecord:
    """Signed imbalance estimate plus everything needed to reproduce it.

    sign is +1, -1, or None (undecided); eps_hat equals sign times the
    magnitude when the sign is known and the bare magnitude otherwise.
    (ci_lo, ci_hi) bound the magnitude.  verdict is "ok", or
    "eps_exceeds_eps0" when the imbalance lies outside the prior bound (then
    eps_hat is the signed prior bound and the interval is (eps0, 1.0)).
    """

    eps_hat: float
    sign: Optional[int]
    ci_lo: float
    ci_hi: float
    f_hat: float
    exact_p: float
    alpha: int
    beta: int
    theta: float
    kappa: float
    eps0: float
    mode: str
    seed: int
    n: int
    verdict: str = "ok"


def sign_bracket(beta: int) -> float:
    """Widest inversion bracket safe at a given loop count."""
    return min(1.0, MONOTONE_CAP / beta)


def _invert(f_hat: float, beta: int, top_m: float, top: float, sign: int) -> float:
    """Magnitude m in [0, top_m] with predicted_fraction(sign*m, beta) == f_hat,
    given top == predicted_fraction(sign*top_m, beta).

    Illinois (regula falsi) steps on g(m) = sqrt(f(sign*m)) - sqrt(f_hat),
    which is nearly linear in m since |k| ~= 2*sqrt(2)*beta*m, until the
    bracket is BRACKET_TOL wide.  f is monotone on the bracket and every
    step keeps the root bracketed, so this converges wherever bisection
    does, in about 11 evaluations of f instead of 40; a step that rounds
    onto a bracket end bisects instead.  f_hat at or just past the top
    (within _TOP_TOL) maps to top_m, and f_hat <= 0 to 0.
    """
    if f_hat > top + _TOP_TOL:
        raise FractionOutOfRange(f_hat, top)
    if f_hat >= top:
        return top_m
    if f_hat <= 0.0:
        return 0.0
    root = math.sqrt(f_hat)
    lo, hi, g_lo, g_hi = 0.0, top_m, -root, math.sqrt(top) - root  # f(0) == 0
    side = 0
    while hi - lo > BRACKET_TOL:
        m = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < m < hi:
            m = 0.5 * (lo + hi)
        g = math.sqrt(predicted_fraction(sign * m, beta)) - root
        if g == 0.0:
            return m
        if g < 0.0:
            lo, g_lo = m, g
            if side < 0:
                g_hi *= 0.5  # hi held twice running: pull the chord toward it
            side = -1
        else:
            hi, g_hi = m, g
            if side > 0:
                g_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def _fit(f_hat: float, alpha: Optional[int], kappa: float, beta: int,
         eps_hi: float, sign: int) -> Tuple[float, Tuple[float, float]]:
    """Magnitude and interval on the branch m -> f(sign*m, beta), bracketed
    by [0, eps_hi] on either branch.  Each end is one ``_invert`` call,
    exact to BRACKET_TOL.
    alpha=None means an exact readout: the interval collapses to the point
    m.  Otherwise the interval inverts the Hoeffding band
    f_hat +- kappa*sqrt(1/alpha), which holds with probability at least
    1 - 2*exp(-2*kappa^2); its upper end clamps at the bracket top.
    Raises FractionOutOfRange when f_hat lies above the bracket (beyond
    rounding forgiveness)."""
    if beta < 1:
        raise ParameterError(f"loop count must be >= 1, got {beta}")
    if not f_hat >= 0.0:
        raise ParameterError(f"fraction must be >= 0, got {f_hat}")
    if not (0.0 < eps_hi <= sign_bracket(beta)):
        raise ParameterError(
            f"bracket top must be in (0, {sign_bracket(beta)}] for beta={beta}, "
            f"got {eps_hi}"
        )
    top = predicted_fraction(sign * eps_hi, beta)
    m = _invert(f_hat, beta, eps_hi, top, sign)
    if alpha is None:
        return m, (m, m)
    half = kappa * math.sqrt(1.0 / alpha)
    lo = _invert(max(0.0, f_hat - half), beta, eps_hi, top, sign)
    hi = _invert(min(f_hat + half, top), beta, eps_hi, top, sign)
    return m, (lo, hi)


def _probe_sign(o: ThresholdOracle, plan: RunPlan, resolution: float) -> Optional[int]:
    """Sampled-mode sign decision from the unamplified uniform distribution,
    whose below probability is (1 + eps)/2, so sign(2f - 1) = sign(eps).

    A classical draw sized so its noise gate equals ``resolution`` decides,
    returning None when the estimate is inside the gate.  Used at eps0 when
    the amplified fraction overflowed the bracket, and at a finer resolution
    when the fitted magnitude clears its half-width.
    """
    m_probe = max(1, math.ceil((2.0 * plan.kappa / resolution) ** 2 - 1e-9))
    _, est = classical_estimate(o, m_probe, derive_seed(plan.seed, SALT_PROBE))
    gate = 2.0 * plan.kappa * math.sqrt(1.0 / m_probe)
    if est > gate:
        return 1
    if est < -gate:
        return -1
    return None


def eps_est(
    d: Dataset,
    mu: float,
    eps0: float = 0.1,
    theta: float = 0.1,
    kappa: float = 3.0,
    mode: str = "exact",
    seed: int = 0,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
) -> EstimateRecord:
    """Full signed-imbalance estimate at threshold mu.

    Chooses beta = max(1, floor(1/(20*eps0))) and alpha = ceil(1/theta^2)
    unless overridden, runs the experiment, inverts the fraction on
    [0, eps0] and attaches the confidence interval.  Exact mode takes the
    sign and the verdict from the partition, in that one experiment, and
    fits once on the sign's branch.  Sampled mode fits the positive branch,
    takes the sign from the gated classical probe when the magnitude clears
    its half-width (None otherwise), and refits a negative sign on the
    negative branch, keeping the positive fit when sampling noise puts the
    fraction above f(-eps0).  Verdict "eps_exceeds_eps0" comes with
    eps_hat = sign * eps0 and interval (eps0, 1).
    """
    if beta is None:
        beta = choose_beta(eps0)
    if alpha is None:
        alpha = choose_alpha(theta)
    plan = RunPlan(eps0, theta, kappa, alpha, beta, mode, seed)
    o = make_oracle(d, mu)
    res = run_experiment(o, plan)
    if mode == "exact":
        # the partition counts give the sign and the verdict, so one fit on
        # the sign's branch suffices: with |eps| <= eps0 on a monotone
        # branch, the exact fraction lies inside its bracket
        overflow = abs(o.eps) > eps0
        sgn = (1 if o.eps > 0.0 else -1) if o.eps else None
        if not overflow:
            m, ci = _fit(res.f_hat, None, kappa, beta, eps0, sgn or 1)
    else:
        overflow = False
        try:
            m, ci = _fit(res.f_hat, alpha, kappa, beta, eps0, 1)
        except FractionOutOfRange:
            overflow, sgn = True, _probe_sign(o, plan, eps0)
        else:
            sgn = None
            if m > 0.5 * (ci[1] - ci[0]) + _SLACK:
                # magnitude resolved past its noise: the gated classical
                # probe picks the sign
                sgn = _probe_sign(o, plan, ACCEPT_FACTOR * eps0)
            if sgn == -1:
                try:
                    m, ci = _fit(res.f_hat, alpha, kappa, beta, eps0, -1)
                except FractionOutOfRange:
                    pass  # noise put f_hat above f(-eps0): the positive fit stands
    if overflow:
        m, ci = eps0, (eps0, 1.0)
    return EstimateRecord(
        eps_hat=m if sgn is None else sgn * m, sign=sgn, ci_lo=ci[0],
        ci_hi=ci[1], f_hat=res.f_hat, exact_p=res.exact_p, alpha=alpha,
        beta=beta, theta=theta, kappa=kappa, eps0=eps0, mode=mode, seed=seed,
        n=d.n, verdict="eps_exceeds_eps0" if overflow else "ok",
    )
