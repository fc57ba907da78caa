"""Closed-form two-amplitude model of the amplification dynamics.

Because every algorithm step maps flat amplitudes to flat amplitudes, the
whole register reduces to one pair (k, l): the common amplitude of the
below-threshold and above-threshold states.  This module evolves that pair
exactly (convention: sum of |amplitude|^2 over states equals N, so the
simulator's unit-norm amplitudes correspond to (k, l)/sqrt(N)).

Preparation lands on (k, l) = (eps, (1+eps) + i).  One full loop pass
applies the transfer

    k' = k(1 - 2 eps^2) + l(2 eps - 2 eps^2)
    l' = -k(2 eps + 2 eps^2) + l(1 - 2 eps^2)

whose closed-form solution after r passes is, with phi = 2 asin(eps) and
gamma = sqrt((1-eps)/(1+eps)),

    k_r = gamma (1 + eps + i) sin(r phi) + eps cos(r phi)
    l_r = (1 + eps + i) cos(r phi) - (eps / gamma) sin(r phi)

The transfer conserves C = (1+eps)|k|^2 + (1-eps)|l|^2 (== 2 from the
prepared state), and the measured below fraction is
f = (1/2)(1+eps)|k_beta|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


@dataclass
class TwoAmpState:
    k: complex
    l: complex
    eps: float


def post_shift(eps: float) -> TwoAmpState:
    """Model state right after preparation: (eps, (1+eps) + i)."""
    if not (-1.0 <= eps <= 1.0):
        raise ParameterError(f"eps must lie in [-1, 1], got {eps}")
    return TwoAmpState(complex(eps), complex(1.0 + eps, 1.0), eps)


def loop_step(s: TwoAmpState) -> TwoAmpState:
    """One full amplification pass (phase, diffusion, phase, diffusion)."""
    e = s.eps
    diag = 1.0 - 2.0 * e * e
    off = 2.0 * e - 2.0 * e * e
    off2 = 2.0 * e + 2.0 * e * e
    return TwoAmpState(diag * s.k + off * s.l,
                       -off2 * s.k + diag * s.l, e)


def conserved_quantity(s: TwoAmpState) -> float:
    return ((1.0 + s.eps) * abs(s.k) ** 2 + (1.0 - s.eps) * abs(s.l) ** 2)


def _iterate_from_prepared(eps: float, r: int) -> TwoAmpState:
    s = post_shift(eps)
    for _ in range(r):
        s = loop_step(s)
    return s


def _phi(eps: float) -> float:
    """Rotation angle of the closed form, for |eps| < 1.

    cos(phi) == 1 - 2 eps^2 with phi carrying the sign of eps, so that
    gamma*sin(phi) == 2 eps - 2 eps^2 holds for both signs.  phi is
    computed as 2 asin(eps), which is that angle without acos's
    cancellation in 1 - 2 eps^2 at small |eps|, and is +0 at eps == -0.0
    too, so that -0.0 gives the same amplitudes as 0.0.
    """
    if not (-1.0 <= eps <= 1.0):
        raise ParameterError(f"eps must lie in [-1, 1], got {eps}")
    return 2.0 * math.asin(eps) if eps != 0.0 else 0.0


def k_closed_form(eps: float, r: int) -> complex:
    """k after r loop passes from the prepared state (closed form)."""
    if r < 0:
        raise ParameterError(f"repetition count must be >= 0, got {r}")
    if abs(eps) == 1.0:
        # gamma degenerates (0 or infinity); the recurrence is exact here
        return _iterate_from_prepared(eps, r).k
    t = r * _phi(eps)
    gamma = math.sqrt((1.0 - eps) / (1.0 + eps))
    return gamma * complex(1.0 + eps, 1.0) * math.sin(t) + eps * math.cos(t)


def l_closed_form(eps: float, r: int) -> complex:
    """Companion closed form for l (same decomposition as ``k_closed_form``)."""
    if r < 0:
        raise ParameterError(f"repetition count must be >= 0, got {r}")
    if abs(eps) == 1.0:
        return _iterate_from_prepared(eps, r).l
    t = r * _phi(eps)
    # eps/gamma written as eps*sqrt((1+eps)/(1-eps)) stays finite for eps<1
    eps_over_gamma = eps * math.sqrt((1.0 + eps) / (1.0 - eps))
    return complex(1.0 + eps, 1.0) * math.cos(t) - eps_over_gamma * math.sin(t)


def k_small_eps_approx(eps: float, r: int) -> float:
    """Small-imbalance growth law |k_r| ~= 2*sqrt(2)*r*eps."""
    if r < 0:
        raise ParameterError(f"repetition count must be >= 0, got {r}")
    if eps < 0.0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    return TWO_SQRT2 * r * eps


def predicted_fraction(eps: float, beta: int) -> float:
    """Below-threshold probability after beta loop passes:
    f = (1/2)(1+eps)|k_beta|^2."""
    if beta < 0:
        raise ParameterError(f"loop count must be >= 0, got {beta}")
    k = k_closed_form(eps, beta)
    return 0.5 * (1.0 + eps) * (k.real * k.real + k.imag * k.imag)


def predicted_fractions(eps: np.ndarray, beta: int) -> np.ndarray:
    """``predicted_fraction`` on every element of eps, each in (-1, 1): the
    same closed form, step for step, in numpy array arithmetic (a few ulps
    from the scalar form where numpy's sin, cos and arcsin round
    differently from the C library's)."""
    if beta < 0:
        raise ParameterError(f"loop count must be >= 0, got {beta}")
    gamma = np.sqrt((1.0 - eps) / (1.0 + eps))
    t = beta * (2.0 * np.arcsin(eps))
    sin_t = np.sin(t)
    k_re = gamma * (1.0 + eps) * sin_t + eps * np.cos(t)
    k_im = gamma * sin_t
    return 0.5 * (1.0 + eps) * (k_re * k_re + k_im * k_im)
