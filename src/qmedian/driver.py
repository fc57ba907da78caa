"""End-to-end execution of the amplification experiment on the simulator.

One experiment is: prepare the register against a threshold oracle, run the
amplification loop beta times, then read out the below-threshold fraction —
exactly (a simulator privilege) or by sampling the final state alpha times.

Every step maps flat amplitudes to flat amplitudes, so the experiment
reduces to the model's (k, l) pair after beta passes: k/sqrt(N) on every
below state, l/sqrt(N) on every above state.  One measurement therefore
lands below with probability exact_p = (n_below/N)|k|^2, independently per
draw: since n_below/N == (1+eps)/2, that is the closed form
``predicted_fraction(eps, beta)`` the estimator inverts.  Exact mode
reports it, and sampled mode takes alpha Bernoulli(exact_p) draws, one
uniform per draw from the plan seed's sample sub-stream; neither builds a
register.  ``prepare`` and ``amplification_loop`` evolve all 2^n
amplitudes instead, as the reference in ``qmedian.checks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import ThresholdOracle
from .errors import ParameterError
from .model import predicted_fraction
from .rng import (
    SALT_SAMPLES,
    bernoulli_counts,
    bulk_uniforms,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS resolves it
    derive_seed,
)
from .statevector import (
    StateVector,
    conditional_phase,
    diffusion,
    probability_of,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS resolves it
    sample,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS resolves it
    sample_many,  # noqa: F401  unused here; perfbench/tracing.py's WRAPS resolves it
    shift,
    uniform_state,
)

MODES = ("exact", "sampled")

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class RunPlan:
    """Parameters of one experiment.

    alpha: number of measurement repetitions; beta: amplification loop
    repetitions; mode: "exact" or "sampled"; seed: 64-bit master seed.
    """

    alpha: int
    beta: int
    mode: str
    seed: int

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ParameterError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 1:
            raise ParameterError(f"beta must be >= 1, got {self.beta}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment.

    f_hat is the measured below-threshold fraction: exact_p in exact mode,
    the share of alpha independent Bernoulli(exact_p) draws that landed
    below in sampled mode; exact_p is always the exact below probability,
    (n_below/N)|k|^2 after beta passes, read off the model's closed form.
    """

    f_hat: float
    exact_p: float


def choose_beta(eps0: float) -> int:
    """Loop count for a given prior bound: max(1, floor(1/(20*eps0))).

    Keeps beta*eps0 <= 0.05, or <= 0.1 where eps0 > 0.05 forces beta = 1,
    well inside 0.45, the product up to which both branches of the fraction
    curve are verified strictly monotone (invertible) for every beta up to
    200 (tests/test_estimator.py), so ``eps_est`` needs no bracket check of
    its own.
    """
    if not (0.0 < eps0 <= 0.1):
        raise ParameterError(f"eps0 must be in (0, 0.1], got {eps0}")
    return max(1, math.floor(1.0 / (20.0 * eps0) + 1e-9))


def choose_alpha(theta: float) -> int:
    """Repetition count for a target relative precision: ceil(1/theta^2)."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must be in (0, 1], got {theta}")
    return math.ceil(1.0 / (theta * theta) - 1e-9)


def prepare(o: ThresholdOracle) -> StateVector:
    """Initial distribution: uniform state, then a pi/2 phase on every
    above-threshold basis state, then the shift transform.

    Leaves every below amplitude at eps/sqrt(N) and every above amplitude
    at ((1+eps) + i)/sqrt(N).
    """
    state = uniform_state(o.n)
    conditional_phase(state, o.above_mask, _HALF_PI)
    shift(state)
    return state


def amplification_loop(state: StateVector, o: ThresholdOracle, beta: int) -> StateVector:
    """beta repetitions of: pi phase below, diffusion, pi phase above,
    diffusion.  Mutates and returns the state."""
    if beta < 0:
        raise ParameterError(f"loop count must be >= 0, got {beta}")
    below = o.below_mask
    above = o.above_mask
    for _ in range(beta):
        conditional_phase(state, below, math.pi)
        diffusion(state)
        conditional_phase(state, above, math.pi)
        diffusion(state)
    return state


def run_experiment(o: ThresholdOracle, plan: RunPlan) -> ExperimentResult:
    """Run the full experiment for one oracle under one plan.

    Both modes read the below probability exact_p off the closed form and
    build no register.  Exact mode reports it; sampled mode counts draw j
    below when its uniform u_j < exact_p, over plan.alpha draws (one block
    of ``rng.bernoulli_counts``, compared on the raw words), and reports the
    fraction that landed below.  Deterministic given (oracle, plan).
    """
    exact_p = predicted_fraction(o.eps, plan.beta)
    if plan.mode == "exact":
        return ExperimentResult(exact_p, exact_p)

    hits, = bernoulli_counts(derive_seed(plan.seed, SALT_SAMPLES), plan.alpha, (exact_p,))
    return ExperimentResult(hits / plan.alpha, exact_p)
