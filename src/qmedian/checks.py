"""The 2^n register reference, and the ``check`` suite built on it.

No estimate builds a register; it is kept as the reference that proves the
reduction to the model's (k, l) pair.  ``grid_oracle``, ``random_state``
and ``evolve`` are its one construction, shared by ``check``, ``sweep --n``
and the tests; ``evolve`` compares the register with the closed-form pair on
every loop pass.  Each check reports the worst absolute error it saw:

  unitarity               norm preservation of all four register transforms
  factorization_diffusion dense F T F versus the diffusion matrix
  factorization_shift     dense F R F versus the shift matrix
  preparation             prepared amplitudes and their flatness
  conservation            the recurrence's conserved pair quantity, plus the
                          register's norm drift
  closed_form             the register's below/above pair versus the closed form
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .dataset import ThresholdOracle, oracle_from_mask
from .dense import dense_d, dense_f, dense_r, dense_s, dense_t
from .driver import amplification_loop, prepare
from .model import (
    conserved_quantity,
    k_closed_form,
    l_closed_form,
    loop_step,
    post_shift,
    predicted_fraction,
)
from .rng import bulk_uniforms, derive_seed
from .statevector import (
    StateVector,
    _check_bits,
    conditional_phase,
    diffusion,
    probability_of,
    shift,
    walsh_hadamard,
)

_DENSE_CAP = 5
_BLOCK = 1 << 16  # amplitudes compared at a time: small temporaries at any n


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


def grid_oracle(n: int, n_below: int, seed: Optional[int] = None) -> ThresholdOracle:
    """Oracle on a 2^n register with n_below states below: the first n_below
    indices, or with a seed, the n_below indices holding the smallest of
    2^n uniform keys drawn from it (a partial sort, O(2^n)).  The keys and
    their order are freed before any register is built."""
    mask = np.zeros(1 << n, dtype=bool)
    if seed is None:
        mask[:n_below] = True
    else:
        mask[np.argpartition(bulk_uniforms(seed, 1 << n), n_below - 1)[:n_below]] = True
    return oracle_from_mask(n, mask)


@dataclass(frozen=True)
class Pass:
    """The register after r loop passes against the closed-form pair (k_r, l_r)."""

    r: int
    state: StateVector  # the live register: the next pass mutates it
    amp_err: float  # each amplitude against k_r or l_r over sqrt(N), and against
    #                 the first below or last above amplitude (flatness)
    pair_err: float  # sqrt(N) times those two amplitudes against k_r and l_r
    p: float  # below probability read off the register
    p_err: float  # p against predicted_fraction(eps, r)
    conserved_err: float  # (1+eps)|k|^2 + (1-eps)|l|^2 of the register against 2
    norm_err: float  # |norm^2 - 1|


def _gap(amps: np.ndarray, mask: np.ndarray, below: complex, above: complex) -> float:
    """max |a - below| over the masked amplitudes and |a - above| over the rest."""
    return max(
        float(np.abs(amps[i:i + _BLOCK] - np.where(mask[i:i + _BLOCK], below, above)).max())
        for i in range(0, amps.size, _BLOCK)
    )


def evolve(o: ThresholdOracle, loops: int) -> Iterator[Pass]:
    """Prepare the register against o, then run the amplification loop one
    pass at a time, yielding the comparison after r = 0..loops passes."""
    state = prepare(o)
    mask = o.below_mask
    first_below = int(np.argmax(mask))
    last_above = o.size - 1 - int(np.argmax(~mask[::-1]))
    scale = math.sqrt(1.0 / o.size)
    root_n = math.sqrt(o.size)
    for r in range(loops + 1):
        if r:
            amplification_loop(state, o, 1)
        a = state.amps
        k, l = k_closed_form(o.eps, r), l_closed_form(o.eps, r)
        k_reg = complex(a[first_below]) * root_n  # (1+eps) == 0 when none is below
        l_reg = complex(a[last_above]) * root_n  # (1-eps) == 0 when none is above
        p = probability_of(state, mask)
        yield Pass(
            r, state,
            amp_err=max(_gap(a, mask, k * scale, l * scale),
                        _gap(a, mask, a[first_below], a[last_above])),
            pair_err=max(abs(k_reg - k) if o.n_below else 0.0,
                         abs(l_reg - l) if o.n_above else 0.0),
            p=p,
            p_err=abs(p - predicted_fraction(o.eps, r)),
            conserved_err=abs((1.0 + o.eps) * abs(k_reg) ** 2
                              + (1.0 - o.eps) * abs(l_reg) ** 2 - 2.0),
            norm_err=abs(state.norm_sq() - 1.0),
        )


def check_unitarity(n_top: int, seed: int) -> float:
    """Worst |norm^2 - 1| after one application of F, D, S, or a phase."""
    worst = 0.0
    for n in range(1, n_top + 1):
        for t in range(10):
            base = random_state(n, derive_seed(seed, n * 1000 + t))
            mask = random_mask(n, derive_seed(seed, n * 1000 + t))
            phases = [lambda s, angle=angle: conditional_phase(s, mask, angle)
                      for angle in (math.pi, math.pi / 2, 0.7)]
            for op in (walsh_hadamard, diffusion, shift, *phases):
                worst = max(worst, abs(op(base.copy()).norm_sq() - 1.0))
    return worst


def check_factorization(n_top: int, middle, target) -> float:
    """Worst entry of |F M F - T| over register sizes up to _DENSE_CAP."""
    worst = 0.0
    for n in range(1, min(n_top, _DENSE_CAP) + 1):
        f = dense_f(n)
        worst = max(worst, float(np.abs(f @ middle(n) @ f - target(n)).max()))
    return worst


def check_preparation(n: int, seed: int) -> float:
    """Prepared amplitudes and flatness at about 65 below-counts with
    |eps| <= 0.25, on head and scattered partitions in turn."""
    size = 1 << n
    lo, hi = math.ceil(size * 0.375), math.floor(size * 0.625)
    counts = list(range(lo, hi + 1, max(1, (hi - lo + 1) // 65)))
    worst = 0.0
    for idx, n_below in enumerate(counts if counts[-1] == hi else counts + [hi]):
        o = grid_oracle(n, n_below, derive_seed(seed, 4000 + idx) if idx % 2 else None)
        # a comprehension, so no pass keeps its register alive into the next
        worst = max([worst] + [p.amp_err for p in evolve(o, 0)])
    return worst


def _schedule(n: int, eps: float) -> Tuple[float, float]:
    """(conservation, closed_form) over 100 passes at the grid imbalance
    nearest eps: the recurrence's drift of (1+eps)|k|^2 + (1-eps)|l|^2 from
    2 with the register's norm drift, and the register's pair error."""
    o = grid_oracle(n, round((1 << n) * (1.0 + eps) / 2.0))
    s = post_shift(o.eps)
    conservation = closed_form = 0.0
    for p in evolve(o, 100):
        conservation = max(conservation, abs(conserved_quantity(s) - 2.0), p.norm_err)
        closed_form = max(closed_form, p.pair_err)
        s = loop_step(s)
    return conservation, closed_form


def run_checks(n: int, seed: int) -> List[CheckResult]:
    """The full suite at register size n.  Raises on an invalid n; numeric
    failures are reported through the results, not raised."""
    _check_bits(n)
    schedules = [_schedule(n, eps) for eps in (0.125, -0.125, 0.0625)]
    return [
        CheckResult("unitarity", check_unitarity(min(n, 10), seed)),
        CheckResult("factorization_diffusion", check_factorization(n, dense_t, dense_d)),
        CheckResult("factorization_shift", check_factorization(n, dense_r, dense_s)),
        CheckResult("preparation", check_preparation(n, seed)),
        CheckResult("conservation", schedules[0][0]),
        CheckResult("closed_form", max(cf for _, cf in schedules)),
    ]
