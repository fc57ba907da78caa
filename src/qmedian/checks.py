"""Numeric verification suite behind the ``check`` command.

Each check recomputes one structural fact about the transforms from an
independent construction (dense matrices, the two-amplitude closed form,
rational bookkeeping) and reports the worst absolute error it saw.  The
CLI compares those maxima against a tolerance.

Checks:
  unitarity               norm preservation of all four register transforms
  factorization_diffusion dense F T F versus the diffusion matrix
  factorization_shift     dense F R F versus the shift matrix
  preparation             prepared amplitudes and their flatness
  conservation            the loop's conserved pair quantity, plus norm drift
  closed_form             simulated below/above amplitudes versus the model
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .dataset import oracle_from_mask
from .dense import dense_d, dense_f, dense_r, dense_s, dense_t
from .driver import amplification_loop, prepare
from .model import conserved_quantity, k_closed_form, l_closed_form, loop_step, post_shift
from .rng import bulk_uniforms, derive_seed
from .statevector import (
    StateVector,
    _check_bits,
    conditional_phase,
    diffusion,
    shift,
    walsh_hadamard,
)

_DENSE_CAP = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float


def random_state(n: int, seed: int) -> StateVector:
    """Deterministic random unit state (components uniform, then normalized)."""
    size = 1 << n
    re = bulk_uniforms(derive_seed(seed, 1), size) - 0.5
    im = bulk_uniforms(derive_seed(seed, 2), size) - 0.5
    amps = re + 1j * im
    nrm = math.sqrt(float(np.sum(re * re + im * im)))
    return StateVector(n, (amps / nrm).astype(np.complex128))


def random_mask(n: int, seed: int) -> np.ndarray:
    return bulk_uniforms(derive_seed(seed, 3), 1 << n) < 0.5


def _head_mask(n: int, n_below: int) -> np.ndarray:
    mask = np.zeros(1 << n, dtype=bool)
    mask[:n_below] = True
    return mask


def check_unitarity(n_top: int, seed: int, trials: int = 10) -> float:
    """Worst |norm^2 - 1| after one application of F, D, S, or a phase."""
    worst = 0.0
    for n in range(1, n_top + 1):
        for t in range(trials):
            base = random_state(n, derive_seed(seed, n * 1000 + t))
            mask = random_mask(n, derive_seed(seed, n * 1000 + t))
            for op in (
                walsh_hadamard,
                diffusion,
                shift,
                lambda s: conditional_phase(s, mask, math.pi),
                lambda s: conditional_phase(s, mask, math.pi / 2),
                lambda s: conditional_phase(s, mask, 0.7),
            ):
                worst = max(worst, abs(op(base.copy()).norm_sq() - 1.0))
    return worst


def _factorization(n_top: int, middle, target) -> float:
    """Worst entry of |F M F - T| over register sizes up to _DENSE_CAP."""
    worst = 0.0
    for n in range(1, min(n_top, _DENSE_CAP) + 1):
        f = dense_f(n)
        worst = max(worst, float(np.abs(f @ middle(n) @ f - target(n)).max()))
    return worst


def check_factorization_diffusion(n_top: int) -> float:
    return _factorization(n_top, dense_t, dense_d)


def check_factorization_shift(n_top: int) -> float:
    return _factorization(n_top, dense_r, dense_s)


def _grid_counts(n: int, eps_cap: float = 0.25, limit: int = 65):
    """Below-counts whose imbalance magnitude is within eps_cap, strided
    down to at most ``limit`` entries."""
    size = 1 << n
    lo = math.ceil(size * (1.0 - eps_cap) / 2.0)
    hi = math.floor(size * (1.0 + eps_cap) / 2.0)
    counts = list(range(lo, hi + 1))
    stride = max(1, len(counts) // limit)
    picked = counts[::stride]
    if picked[-1] != counts[-1]:
        picked.append(counts[-1])
    return picked


def check_preparation(n: int, seed: int) -> float:
    """Prepared amplitudes against (eps, (1+eps)+i)/sqrt(N), plus flatness."""
    worst = 0.0
    scale = math.sqrt(1.0 / (1 << n))
    for idx, n_below in enumerate(_grid_counts(n)):
        if idx % 2 == 0:
            mask = _head_mask(n, n_below)
        else:  # same count, scattered positions
            keys = bulk_uniforms(derive_seed(seed, 4000 + idx), 1 << n)
            mask = np.zeros(1 << n, dtype=bool)
            mask[np.argsort(keys, kind="stable")[:n_below]] = True
        o = oracle_from_mask(n, mask)
        state = prepare(o)
        below = state.amps[o.below_mask]
        above = state.amps[o.above_mask]
        if below.size:
            worst = max(worst, float(np.abs(below - o.eps * scale).max()))
            worst = max(worst, float(np.abs(below - below[0]).max()))
        if above.size:
            target = complex(1.0 + o.eps, 1.0) * scale
            worst = max(worst, float(np.abs(above - target).max()))
            worst = max(worst, float(np.abs(above - above[0]).max()))
    return worst


def check_conservation(n: int, loops: int = 100) -> float:
    """Drift of (1+eps)|k|^2 + (1-eps)|l|^2 from 2 over the loop, plus the
    simulator's norm drift over the same schedule."""
    size = 1 << n
    n_below = round(size * (1.0 + 0.125) / 2.0)
    o = oracle_from_mask(n, _head_mask(n, n_below))
    worst = 0.0
    s = post_shift(o.eps)
    for _ in range(loops):
        s = loop_step(s)
        worst = max(worst, abs(conserved_quantity(s) - 2.0))
    state = prepare(o)
    for _ in range(loops):
        amplification_loop(state, o, 1)
        worst = max(worst, abs(state.norm_sq() - 1.0))
    return worst


def check_closed_form(n: int, loops: int = 100) -> float:
    """Simulated below/above amplitudes (times sqrt(N)) against the
    closed-form pair, over the whole loop schedule."""
    size = 1 << n
    root_n = math.sqrt(size)
    worst = 0.0
    for eps_target in (0.125, -0.125, 0.0625):
        n_below = round(size * (1.0 + eps_target) / 2.0)
        o = oracle_from_mask(n, _head_mask(n, n_below))
        state = prepare(o)
        for r in range(loops + 1):
            k_sim = complex(state.amps[0]) * root_n if n_below else 0j
            l_sim = complex(state.amps[size - 1]) * root_n
            worst = max(worst, abs(k_sim - k_closed_form(o.eps, r)))
            worst = max(worst, abs(l_sim - l_closed_form(o.eps, r)))
            if r < loops:
                amplification_loop(state, o, 1)
    return worst


def run_checks(n: int, seed: int = 1) -> List[CheckResult]:
    """The full suite at register size n.  Raises on an invalid n; numeric
    failures are reported through the results, not raised."""
    _check_bits(n)
    return [
        CheckResult("unitarity", check_unitarity(min(n, 10), seed)),
        CheckResult("factorization_diffusion", check_factorization_diffusion(n)),
        CheckResult("factorization_shift", check_factorization_shift(n)),
        CheckResult("preparation", check_preparation(n, seed)),
        CheckResult("conservation", check_conservation(n)),
        CheckResult("closed_form", check_closed_form(n)),
    ]
