"""Turning a measured below-threshold fraction into a signed imbalance.

The amplified fraction f = (1/2)(1+eps)|k_beta|^2 depends on the imbalance
magnitude only to leading order, so estimation proceeds in two steps:

1. take the sign and the overflow verdict.  Exact mode reads both off the
   partition counts.  Sampled mode takes the sign from pairs of amplified
   arms.  Each arm runs the loop on the register padded with one ancilla
   bit whose half holds (1 + s*delta)*N/2 below entries (s = +-1), so its
   imbalance is exactly (eps + s*delta)/2 and its fraction is
   f((eps + s*delta)/2, beta').  The difference of the two arms' hit rates,
   less its known value at eps = 0, carries the sign of eps; the test
   returns that sign when the difference clears a gate at half its value
   at |eps| = ACCEPT_FACTOR*delta, and None inside it.  The arms share no
   draw, so the difference is a mean of alpha_s independent pair
   differences, and alpha_s is the fewest pairs whose Chernoff bound puts
   both a wrong sign and a miss at |eps| >= ACCEPT_FACTOR*delta at
   exp(-2*KAPPA^2) or below.  The pairs form a ladder, walked down until
   one decides: delta = 1/4, 1/8, ... while above eps0, then eps0.  The top
   pair, at delta = 1/4 and one pass, keeps the right sign over all of
   [-1, 1].  A rung below it runs only after the coarser one, at no more
   than twice its offset, stayed undecided, so the |eps| it can see, its
   admissible range, is |eps| < 2*ACCEPT_FACTOR*delta; it runs
   floor(0.9/delta) passes, keeps the right sign up to |eps| ~= 1.7*delta,
   and its design checks the sign on |eps| <= 0.8*delta, twice the
   admissible range.  The ladder's cost grows as 1/eps0 loop passes, where
   a classical probe would need 1/eps0^2 draws, and sampled mode makes no
   classical draw at all.  Its verdict is an overflow of the measured
   fraction past the positive bracket top f(+eps0, beta), whatever the
   sign;
2. fit the magnitude once, on the sign's branch m -> f(sign*m, beta) (the
   positive one when the sign is undecided), by a bracketed secant
   (Illinois) iteration, with an interval from the Hoeffding band
   f_hat +- KAPPA*sqrt(1/alpha).  Fitting on the sign's own branch removes
   the small odd-order asymmetry between f(+eps) and f(-eps).  Both
   branches are monotone on the same bracket [0, eps0], and a fraction at
   or above the branch's top fits to eps0: sampling noise can put a
   negative imbalance's fraction between f(-eps0) and f(+eps0).

An imbalance beyond the prior bound eps0 is a verdict, not an error, and
needs no fit.  The loop count beta follows from eps0 and the repetition
count alpha from the precision target theta (``driver.choose_beta``,
``driver.choose_alpha``); neither is an input of its own.

The median search needs none of this: ``more_than_half_below`` answers its
one comparison per step from the partition's sign or the ladder alone,
walked from the rung the search's bracket allows (``adaptive``).
"""

from __future__ import annotations

import functools
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
from .model import predicted_fraction, predicted_fractions
from .rng import SALT_ARMS, bernoulli_counts, derive_seed

BRACKET_TOL = 1e-12

# Confidence multiplier of every sampled claim, fixed: each holds with
# probability 1 - 2*exp(-2*KAPPA^2) = 1 - 2*exp(-18) ~= 1 - 3.0e-8.
KAPPA = 3.0

# Forgives rounding at the very top of a bracket; a genuinely out-of-range
# fraction overshoots by orders of magnitude more.
_TOP_TOL = 1e-9

# Smallest imbalance magnitude, as a fraction of a rung's offset delta, that
# the two-arm sign test is sized to resolve.
ACCEPT_FACTOR = 0.2

# Offset of the sign ladder's top rung.  At delta = 1/4 (one pass) the arms'
# offset-corrected difference has the sign of eps for every eps in [-1, 1];
# no offset from 0.1 to 0.2 at the passes of the rungs below does.
_COARSE_SCALE = 0.25

# Loop passes per unit offset below the top rung: beta' = floor(0.9/delta).
# The arms' contrast grows about as beta'^2 while a draw costs beta' passes,
# and at 0.9 it still has the sign of eps up to |eps| ~= 1.7*delta, past
# the 0.8*delta that ``_arm_design`` checks.
_SIGN_LOOP = 0.9

# Points of the eps grid on which ``_arm_design`` checks a rung.
_DESIGN_GRID = 801


@dataclass(frozen=True)
class EstimateRecord:
    """Signed imbalance estimate plus everything needed to reproduce it.

    sign is +1, -1, or None (undecided); eps_hat equals sign times the
    magnitude when the sign is known and the bare magnitude otherwise.
    (ci_lo, ci_hi) bound the magnitude.  verdict is "ok", or
    "eps_exceeds_eps0" when the imbalance lies outside the prior bound (then
    eps_hat is the signed prior bound and the interval is (eps0, 1.0)).
    kappa is always ``KAPPA``; the estimate schema requires the field.
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


def _fit(f_hat: float, alpha: Optional[int], beta: int, eps_hi: float,
         sign: int) -> Tuple[float, Tuple[float, float]]:
    """Magnitude and interval on the branch m -> f(sign*m, beta), bracketed
    by [0, eps_hi] on either branch.  Each end is one ``_invert`` call,
    exact to BRACKET_TOL.
    alpha=None means an exact readout: the interval collapses to the point
    m.  Otherwise the interval inverts the Hoeffding band
    f_hat +- KAPPA*sqrt(1/alpha), which holds with probability at least
    1 - 2*exp(-2*KAPPA^2).  A fraction at or above the bracket top fits to
    eps_hi, as does the interval's upper end whenever the band reaches the
    top; telling an overflow from noise is the caller's verdict.  The
    caller keeps beta >= 1, f_hat >= 0 and beta*eps_hi <= 0.45, the product
    up to which both branches are verified strictly increasing for every
    beta up to 200 (tests/test_estimator.py)."""
    top = predicted_fraction(sign * eps_hi, beta)
    m = _invert(f_hat, beta, eps_hi, top, sign)
    if alpha is None:
        return m, (m, m)
    half = KAPPA * math.sqrt(1.0 / alpha)
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


def _chernoff_exponent(p_a: np.ndarray, p_b: np.ndarray, t: float) -> np.ndarray:
    """Per-pair Chernoff exponent of the lower tail P(mean of A - B <= t),
    A ~ Bernoulli(p_a) and B ~ Bernoulli(p_b) independent, elementwise:
    -min over lambda >= 0 of log E exp(-lambda*(A - B)) + lambda*t, for
    -1 < t < 1.  The tail of alpha pairs is at most exp(-alpha*exponent).

    At x = exp(lambda) the derivative vanishes where
    (1+t)p_b(1-p_a)x^2 + t((1-p_a)(1-p_b) + p_a*p_b)x - (1-t)p_a(1-p_b) = 0,
    whose one positive root is taken in the form that does not cancel.  A
    root below 1 (the mean p_a - p_b at or below t) gives exponent 0, and
    an infinite root (the tail is empty) an infinite one.
    """
    a = (1.0 + t) * p_b * (1.0 - p_a)
    b = t * ((1.0 - p_a) * (1.0 - p_b) + p_a * p_b)
    c = -(1.0 - t) * p_a * (1.0 - p_b)
    root = np.sqrt(b * b - 4.0 * a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.maximum(np.where(b >= 0.0, -2.0 * c / (b + root), (root - b) / (2.0 * a)),
                       1.0)
        value = np.log(1.0 - p_a + p_a / x) + np.log(1.0 - p_b + p_b * x) + t * np.log(x)
    return np.where(np.isinf(x), np.inf, -value)


@functools.lru_cache(maxsize=256)
def _arm_design(size: int, scale: float) -> Tuple[float, int, int, float, float]:
    """(delta, beta', alpha_s, g0, gate) of a two-arm sign test on 2^n =
    size values, with its offset on the grid nearest scale.

    delta = 2j/size with j = max(1, round(scale*size/2)), so the ancilla
    half's (1 + s*delta)*size/2 below entries are whole.  The top rung
    (scale 1/4) runs beta' = 1 pass and must keep the sign over all of
    [-1, 1]; a rung below it runs beta' = max(1, floor(_SIGN_LOOP/delta))
    passes and sees only |eps| < 2*ACCEPT_FACTOR*delta (``_arm_sign``), so
    it is checked on twice that, |eps| <= 4*ACCEPT_FACTOR*delta = 0.8*delta.
    g0 = f(delta/2, beta') - f(-delta/2, beta') is the arms' difference at
    eps = 0, the odd-order asymmetry of the branches, and gate is half the
    smaller offset-corrected contrast at eps = +-ACCEPT_FACTOR*delta.

    On _DESIGN_GRID points over that range, plus +-ACCEPT_FACTOR*delta,
    with the arms' fractions from the array form
    ``model.predicted_fractions``, each pair's Chernoff exponent
    (``_chernoff_exponent``) bounds two events: a wrong sign (the statistic
    past the gate on the other side of 0) and, where
    |eps| >= ACCEPT_FACTOR*delta, a miss (the statistic inside the gate).
    alpha_s = ceil(2*KAPPA^2/I*), I* the smallest exponent, puts both at
    exp(-2*KAPPA^2) or below.  Hoeffding's c^2/4,
    c = 2*gate, bounds I* from below, so alpha_s never exceeds a Hoeffding
    sizing at the same gate.  A zero exponent means the contrast has the
    wrong sign, or stays inside the gate, at some grid point, and raises
    ParameterError: on 2 or 4 values the top rung's offset rounds to 1 or
    1/2 and loses the sign.  A pure function of its arguments, and asked
    again for every rung of every comparison, so it is cached.
    """
    delta = 2.0 * max(1, round(scale * size / 2.0)) / size
    top = scale >= _COARSE_SCALE
    beta = 1 if top else max(1, math.floor(_SIGN_LOOP / delta))
    edge = ACCEPT_FACTOR * delta
    reach = 1.0 if top else 4.0 * edge

    def frac(eps: float) -> float:
        return predicted_fraction(eps, beta)

    offset = frac(delta / 2.0) - frac(-delta / 2.0)

    def contrast(eps: float) -> float:
        return frac((eps + delta) / 2.0) - frac((eps - delta) / 2.0) - offset

    gate = min(contrast(edge), -contrast(-edge)) / 2.0
    eps = np.concatenate([np.linspace(-reach, reach, _DESIGN_GRID), [-edge, edge]])
    up = predicted_fractions((eps + delta) / 2.0, beta)
    down = predicted_fractions((eps - delta) / 2.0, beta)
    pos, neg, far_pos, far_neg = eps >= 0.0, eps <= 0.0, eps >= edge, eps <= -edge
    rate = min(  # wrong sign, then miss, for eps >= 0; mirrored for eps <= 0
        _chernoff_exponent(up[pos], down[pos], offset - gate).min(),
        _chernoff_exponent(up[far_pos], down[far_pos], offset + gate).min(),
        _chernoff_exponent(down[neg], up[neg], -offset - gate).min(),
        _chernoff_exponent(down[far_neg], up[far_neg], gate - offset).min())
    if not rate > 0.0:
        raise ParameterError(
            f"sampled mode cannot keep the sign on {size} values: the two-arm "
            f"test at offset {delta} with {beta} loop passes loses it")
    return delta, beta, math.ceil(2.0 * KAPPA * KAPPA / rate), offset, gate


def _arm_test(o: ThresholdOracle, seed: int, scale: float) -> Optional[int]:
    """One two-arm sign test at the offset nearest scale (``_arm_design``).

    Arm s (+1, -1) is alpha_s Bernoulli draws of f((eps + s*delta)/2, beta'),
    read off the closed form like ``run_experiment``'s readout, from the
    sub-streams of seed: indices 0..alpha_s-1 for the up arm and
    alpha_s..2*alpha_s-1 for the down arm, both counted in one
    ``rng.bernoulli_counts`` call.  Neither arm builds a register.
    The statistic (up - down)/alpha_s - g0 is the mean of alpha_s
    independent pair differences (the arms share no draw), and the design's
    Chernoff sizing keeps both a wrong sign and a miss at |eps| >=
    ACCEPT_FACTOR*delta at probability exp(-2*KAPPA^2) or below, for every
    |eps| the rung can see.  Returns +1 or -1 when it clears the design's
    gate, None inside it.
    """
    delta, beta, alpha, offset, gate = _arm_design(o.size, scale)
    up, down = bernoulli_counts(seed, alpha, (predicted_fraction((o.eps + delta) / 2.0, beta),
                                              predicted_fraction((o.eps - delta) / 2.0, beta)))
    return _gated_sign((up - down) / alpha - offset, gate)


def _ladder(eps0: float) -> Iterator[float]:
    """Offsets of the sign ladder's rungs: 1/4, 1/8, ... while above eps0,
    then eps0."""
    scale = _COARSE_SCALE
    while scale > eps0:
        yield scale
        scale /= 2.0
    yield eps0


def _arm_sign(o: ThresholdOracle, seed: int, eps0: float,
              start: int = 0) -> Tuple[Optional[int], int]:
    """Sampled-mode sign from the first decided rung of a ladder of two-arm
    tests, coarsest first from rung ``start``, with the index of the rung
    that decided it; (None, the ladder's length) when every rung stays
    undecided.

    Rung i runs ``_arm_test`` at offset ``_ladder(eps0)``'s i-th scale on the
    sub-stream derive_seed(derive_seed(seed, SALT_ARMS), i), whatever rung
    the walk starts at.  A test at offset delta decides
    |eps| >= ACCEPT_FACTOR*delta, but below the top rung it keeps the right
    sign only up to |eps| ~= 1.7*delta, and an aliased fraction can put a
    far larger |eps| inside the bracket.  The top rung, at delta = 1/4 and
    one pass, keeps the right sign over all of [-1, 1]; every later rung runs
    only after the rung above it, at no more than twice its offset, stayed
    undecided, which leaves |eps| below 2*ACCEPT_FACTOR*delta = 0.4*delta,
    the admissible range its design checks with a margin of two
    (``_arm_design``).  A walk may start at rung i > 0 only when the caller
    already knows |eps| below ACCEPT_FACTOR times rung i-1's offset, with
    the same confidence, as the median search does from its bracket's
    ends.  The last rung, at eps0, resolves |eps| down to
    ACCEPT_FACTOR*eps0.
    """
    stream = derive_seed(seed, SALT_ARMS)
    scales = list(_ladder(eps0))
    for rung in range(start, len(scales)):
        sign = _arm_test(o, derive_seed(stream, rung), scales[rung])
        if sign is not None:
            return sign, rung
    return None, len(scales)


def more_than_half_below(d: Dataset, mu: float, eps_min: float,
                         mode: str = "exact", seed: int = 0,
                         start: int = 0) -> Tuple[Optional[bool], int]:
    """The median search's comparison at threshold mu: do more than half of
    the values lie below it (eps > 0)?  Returns the answer and the ladder
    rung that gave it.  None means the comparison cannot tell.

    Exact mode reads the partition's sign at rung 0, and answers None only
    at a balanced split (eps == 0).  Sampled mode walks the arm ladder
    (``_arm_sign``) from rung ``start`` down to eps_min and answers None
    when every rung stays undecided, which means
    |eps| < ACCEPT_FACTOR*eps_min with the last rung's confidence,
    1 - 2*exp(-2*KAPPA^2).  A decided rung i > 0 also bounds |eps| below
    ACCEPT_FACTOR times rung i-1's offset, with that confidence: rung i-1
    stayed undecided here, or the caller's ``start`` already bounded it.
    Either way it builds one oracle and makes no classical draw.
    """
    o = make_oracle(d, mu)
    if mode == "exact":
        return (o.eps > 0.0 if o.eps else None), 0
    sign, rung = _arm_sign(o, seed, eps_min, start)
    return None if sign is None else sign == 1, rung


def eps_est(
    d: Dataset,
    mu: float,
    eps0: float = 0.1,
    theta: float = 0.1,
    mode: str = "exact",
    seed: int = 0,
) -> EstimateRecord:
    """Full signed-imbalance estimate at threshold mu.

    Sets beta = max(1, floor(1/(20*eps0))) (``choose_beta``) from the prior
    bound and alpha = ceil(1/theta^2) (``choose_alpha``) from the precision
    target, and runs the experiment.  beta*eps0 <= 0.1, inside the product
    0.45 up to which both branches are verified strictly increasing, so
    [0, eps0] is a monotone bracket on both branches.  It then takes the
    sign and the verdict first: exact mode from the partition, in that one
    experiment; sampled mode from the ladder of amplified arm pairs
    (``_arm_sign``, None when every rung stays undecided) and from the
    fraction overflowing the positive bracket top f(+eps0, beta).  Sampled
    mode makes no classical draw.  Inside the bracket it fits once, on the
    sign's branch (``_fit``), inverting the fraction on [0, eps0] and
    attaching the confidence interval.  Verdict "eps_exceeds_eps0" comes
    with eps_hat = sign * eps0 (the bare eps0 when the sign is undecided)
    and interval (eps0, 1).
    """
    beta = choose_beta(eps0)
    alpha = choose_alpha(theta)
    plan = RunPlan(alpha, beta, mode, seed)
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
        sgn, _ = _arm_sign(o, seed, eps0)
    if overflow:
        m, ci = eps0, (eps0, 1.0)
    else:
        m, ci = _fit(res.f_hat, None if mode == "exact" else alpha, beta, eps0,
                     sgn or 1)
    return EstimateRecord(
        eps_hat=m if sgn is None else sgn * m, sign=sgn, ci_lo=ci[0],
        ci_hi=ci[1], f_hat=res.f_hat, exact_p=res.exact_p, alpha=alpha,
        beta=beta, theta=theta, kappa=KAPPA, eps0=eps0, mode=mode, seed=seed,
        n=d.n, verdict="eps_exceeds_eps0" if overflow else "ok",
    )
