"""Turning a measured below-threshold fraction into a signed imbalance.

The amplified fraction f = (1/2)(1+eps)|k_beta|^2 depends on the imbalance
magnitude only to leading order, so estimation proceeds in two steps:

1. take the sign and the overflow verdict.  Exact mode reads both off the
   partition counts.  Sampled mode takes the sign from pairs of amplified
   arms.  Each arm runs the loop on the register padded with one ancilla
   bit whose half holds (1 + s*delta)*N/2 below entries (s = +-1), so its
   imbalance is exactly (eps + s*delta)/2 and its fraction is
   f((eps + s*delta)/2, beta').  The difference of the two arms' hit rates,
   less its known value at eps = 0, carries the sign of eps; a Hoeffding
   test on it returns the sign or, inside its noise, None.  The pairs form
   a ladder, walked down until one decides: delta = 1/4, 1/8, ... while
   above eps0, then eps0.  A pair decides |eps| >= delta/5 and keeps the
   right sign up to |eps| ~= 3.4*delta (the top one, at one pass, over all
   of [-1, 1]); a rung runs only after the coarser one stayed undecided,
   which leaves |eps| below about 0.4 of the coarser delta, inside its own
   sign range.  The ladder's cost grows as 1/eps0 loop passes, where a
   classical probe would need 1/eps0^2 draws, and sampled mode makes no
   classical draw at all.  Its verdict is an overflow of the measured
   fraction past the positive bracket top f(+eps0, beta), whatever the
   sign;
2. fit the magnitude once, on the sign's branch m -> f(sign*m, beta) (the
   positive one when the sign is undecided), by a bracketed secant
   (Illinois) iteration, with an interval from the Hoeffding band
   f_hat +- kappa*sqrt(1/alpha).  Fitting on the sign's own branch removes
   the small odd-order asymmetry between f(+eps) and f(-eps).  Both
   branches are monotone on the same bracket [0, eps0], and a fraction at
   or above the branch's top fits to eps0: sampling noise can put a
   negative imbalance's fraction between f(-eps0) and f(+eps0).

An imbalance beyond the prior bound eps0 is a verdict, not an error, and
needs no fit.

The median search needs none of this: ``more_than_half_below`` answers its
one comparison per step from the partition's sign or the ladder alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .baseline import (
    classical_estimate,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS resolves it
)
from .dataset import Dataset, ThresholdOracle, make_oracle
from .driver import RunPlan, choose_alpha, choose_beta, run_experiment
from .errors import ParameterError
from .model import predicted_fraction
from .rng import SALT_ARMS, bernoulli_hits, derive_seed

BRACKET_TOL = 1e-12

# Both branches m -> f(+m, beta) and m -> f(-m, beta) peak near
# beta*m ~ 0.53..0.79; each is verified strictly increasing on
# [0, MONOTONE_CAP/beta] for every beta up to 200, which is the widest
# bracket any caller here uses.
MONOTONE_CAP = 0.45

# Forgives rounding at the very top of a bracket; a genuinely out-of-range
# fraction overshoots by orders of magnitude more.
_TOP_TOL = 1e-9

# Smallest imbalance magnitude, as a fraction of a rung's offset delta, that
# the two-arm sign test is sized to resolve.
ACCEPT_FACTOR = 0.2

# Largest loop count for which MONOTONE_CAP is verified.
_BETA_CAP = 200

# Offset of the sign ladder's top rung.  At delta = 1/4 (one pass) the arms'
# offset-corrected difference has the sign of eps for every eps in [-1, 1];
# no offset from 0.1 to 0.2, with the passes MONOTONE_CAP allows, does.
_COARSE_SCALE = 0.25


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
    onto a bracket end bisects instead.  f_hat at or above the top maps to
    top_m, and f_hat <= 0 to 0.
    """
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
    1 - 2*exp(-2*kappa^2).  A fraction at or above the bracket top fits to
    eps_hi, as does the interval's upper end whenever the band reaches the
    top; telling an overflow from noise is the caller's verdict."""
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
    hi = _invert(f_hat + half, beta, eps_hi, top, sign)
    return m, (lo, hi)


def _gated_sign(stat: float, gate: float) -> Optional[int]:
    """+1 or -1 when stat clears the gate on that side, None inside it."""
    if stat > gate:
        return 1
    if stat < -gate:
        return -1
    return None


def _arm_design(size: int, scale: float, kappa: float) -> Tuple[float, int, int, float]:
    """(delta, beta', alpha_s, g0) of a two-arm sign test on 2^n = size
    values, with its offset on the grid nearest scale.

    delta = 2j/size with j = max(1, round(scale*size/2)), so the ancilla
    half's (1 + s*delta)*size/2 below entries are whole.  beta' =
    max(1, min(200, floor(MONOTONE_CAP/delta))) keeps both arms, at
    |(eps +- delta)/2| <= delta, on the monotone bracket.  g0 =
    f(delta/2, beta') - f(-delta/2, beta') is the arms' difference at
    eps = 0, the odd-order asymmetry of the branches.  alpha_s =
    ceil((4*kappa/c)^2), where c is the smaller offset-corrected contrast at
    eps = +-ACCEPT_FACTOR*delta, puts the test's gate at c/2.
    """
    delta = 2.0 * max(1, round(scale * size / 2.0)) / size
    beta = max(1, min(_BETA_CAP, math.floor(MONOTONE_CAP / delta)))
    offset = (predicted_fraction(delta / 2.0, beta)
              - predicted_fraction(-delta / 2.0, beta))

    def contrast(eps: float) -> float:
        return (predicted_fraction((eps + delta) / 2.0, beta)
                - predicted_fraction((eps - delta) / 2.0, beta) - offset)

    c = min(contrast(ACCEPT_FACTOR * delta), -contrast(-ACCEPT_FACTOR * delta))
    return delta, beta, math.ceil((4.0 * kappa / c) ** 2 - 1e-9), offset


def _arm_test(o: ThresholdOracle, kappa: float, seed: int, scale: float) -> Optional[int]:
    """One two-arm sign test at the offset nearest scale (``_arm_design``).

    Arm s (+1, -1) is alpha_s Bernoulli draws of f((eps + s*delta)/2, beta'),
    read off the closed form like ``run_experiment``'s readout, from the
    sub-streams of seed: indices 0..alpha_s-1 for the up arm and
    alpha_s..2*alpha_s-1 for the down arm.  Neither arm builds a register.
    The paired hit difference less g0 lies in [-1, 1] per pair, so by
    Hoeffding it strays from its mean by more than 2*kappa/sqrt(alpha_s)
    with probability at most 2*exp(-2*kappa^2), the confidence of
    ``_fit``'s band.  Returns +1 or -1 when it clears that gate, None inside
    it.
    """
    delta, beta, alpha, offset = _arm_design(o.size, scale, kappa)
    up = np.count_nonzero(
        bernoulli_hits(seed, alpha, predicted_fraction((o.eps + delta) / 2.0, beta)))
    down = np.count_nonzero(
        bernoulli_hits(seed, alpha, predicted_fraction((o.eps - delta) / 2.0, beta), alpha))
    diff = (up - down) / alpha - offset
    return _gated_sign(diff, 2.0 * kappa * math.sqrt(1.0 / alpha))


def _ladder(eps0: float) -> Iterator[float]:
    """Offsets of the sign ladder's rungs: 1/4, 1/8, ... while above eps0,
    then eps0."""
    scale = _COARSE_SCALE
    while scale > eps0:
        yield scale
        scale /= 2.0
    yield eps0


def _arm_sign(o: ThresholdOracle, kappa: float, seed: int, eps0: float) -> Optional[int]:
    """Sampled-mode sign from the first decided rung of a ladder of two-arm
    tests, coarsest first; None when every rung stays undecided.

    Rung i runs ``_arm_test`` at offset ``_ladder(eps0)``'s i-th scale on the
    sub-stream derive_seed(derive_seed(seed, SALT_ARMS), i).  A test at
    offset delta decides |eps| >= ACCEPT_FACTOR*delta but keeps the right
    sign only up to |eps| ~= 3.4*delta, and an aliased fraction can put a far
    larger |eps| inside the bracket.  The top rung, at delta = 1/4 and one
    pass, keeps the right sign over all of [-1, 1]; every later rung runs only
    after the rung above it, at no more than twice its offset, stayed
    undecided, which leaves |eps| below about 0.8*delta, inside its sign
    range.  The last rung, at eps0, resolves |eps| down to
    ACCEPT_FACTOR*eps0.
    """
    stream = derive_seed(seed, SALT_ARMS)
    for rung, scale in enumerate(_ladder(eps0)):
        sign = _arm_test(o, kappa, derive_seed(stream, rung), scale)
        if sign is not None:
            return sign
    return None


def more_than_half_below(d: Dataset, mu: float, eps_min: float, kappa: float = 3.0,
                         mode: str = "exact", seed: int = 0) -> Optional[bool]:
    """The median search's comparison at threshold mu: do more than half of
    the values lie below it (eps > 0)?

    Exact mode reads the partition's sign, so it always answers; a balanced
    split (eps == 0) answers False.  Sampled mode walks the arm ladder
    (``_arm_sign``) down to eps_min and answers None when every rung stays
    undecided, which means |eps| < ACCEPT_FACTOR*eps_min with the last
    rung's confidence, 1 - 2*exp(-2*kappa^2).  Either way it builds one
    oracle and makes no classical draw.
    """
    o = make_oracle(d, mu)
    if mode == "exact":
        return o.eps > 0.0
    sign = _arm_sign(o, kappa, seed, eps_min)
    return None if sign is None else sign == 1


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
    unless overridden and runs the experiment.  It then takes the sign and
    the verdict first: exact mode from the partition, in that one
    experiment; sampled mode from the ladder of amplified arm pairs
    (``_arm_sign``, None when every rung stays undecided) and from the
    fraction overflowing the positive bracket top f(+eps0, beta).  Sampled
    mode makes no classical draw.  Inside the bracket it fits once, on the
    sign's branch (``_fit``), inverting the fraction on [0, eps0] and
    attaching the confidence interval.  Verdict "eps_exceeds_eps0" comes
    with eps_hat = sign * eps0 (the bare eps0 when the sign is undecided)
    and interval (eps0, 1).  A beta override whose bracket is narrower than
    eps0 raises ParameterError before any experiment, in either mode.
    """
    if beta is None:
        beta = choose_beta(eps0)
    if alpha is None:
        alpha = choose_alpha(theta)
    plan = RunPlan(eps0, theta, kappa, alpha, beta, mode, seed)
    if eps0 > sign_bracket(beta):
        raise ParameterError(
            f"eps0 must be <= {sign_bracket(beta)} for beta={beta}, got {eps0}")
    o = make_oracle(d, mu)
    res = run_experiment(o, plan)
    if mode == "exact":
        # with |eps| <= eps0 on a monotone branch, the exact fraction lies
        # inside its bracket
        overflow = abs(o.eps) > eps0
        sgn = (1 if o.eps > 0.0 else -1) if o.eps else None
    else:
        # one top for both signs, the positive one: the negative top
        # f(-eps0) is lower, and would read noise on an in-bracket negative
        # imbalance as overflow more often
        overflow = res.f_hat > predicted_fraction(eps0, beta) + _TOP_TOL
        sgn = _arm_sign(o, kappa, seed, eps0)
    if overflow:
        m, ci = eps0, (eps0, 1.0)
    else:
        m, ci = _fit(res.f_hat, None if mode == "exact" else alpha, kappa,
                     beta, eps0, sgn or 1)
    return EstimateRecord(
        eps_hat=m if sgn is None else sgn * m, sign=sgn, ci_lo=ci[0],
        ci_hi=ci[1], f_hat=res.f_hat, exact_p=res.exact_p, alpha=alpha,
        beta=beta, theta=theta, kappa=kappa, eps0=eps0, mode=mode, seed=seed,
        n=d.n, verdict="eps_exceeds_eps0" if overflow else "ok",
    )
