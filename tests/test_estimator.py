"""Fraction inversion, confidence intervals, and the full signed-imbalance
estimate with its sign."""

import math
from collections import Counter

import numpy as np
import pytest

from qmedian import estimator
from qmedian import (
    ParameterError,
    dataset_from_values,
    eps_est,
    make_oracle,
    median_search_counted,
    predicted_fraction,
    sign_bracket,
    synth_dataset,
)
from qmedian.checks import evolve, grid_oracle
from qmedian.estimator import _arm_design, _fit


@pytest.fixture(scope="module")
def d32():
    return dataset_from_values(np.arange(32.0))


@pytest.fixture(scope="module")
def d1024():
    return dataset_from_values(np.arange(1024.0))


# ------------------------------------------------------------- inversion

def test_sign_bracket_narrows_with_loop_count():
    assert sign_bracket(1) == 0.45
    assert sign_bracket(4) == 0.1125
    assert sign_bracket(450) == 0.001
    assert sign_bracket(1) <= 1.0


def test_invert_fraction_round_trip():
    for beta in (1, 2, 5, 12):
        hi = sign_bracket(beta)
        for eps in np.linspace(1e-4, hi * 0.999, 23):
            f = predicted_fraction(float(eps), beta)
            m = _fit(f, None, 0.0, beta, hi, 1)[0]
            assert abs(m - eps) < 1e-11


def test_invert_fraction_zero_and_top():
    assert _fit(0.0, None, 0.0, 1, 0.1, 1)[0] == 0.0
    top = predicted_fraction(0.1, 1)
    assert _fit(top, None, 0.0, 1, 0.1, 1)[0] == pytest.approx(0.1, abs=1e-11)
    # rounding forgiveness just past the top maps to the bracket end
    assert _fit(top + 1e-10, None, 0.0, 1, 0.1, 1)[0] == pytest.approx(0.1, abs=1e-11)


def test_invert_fraction_clamps_at_and_above_top():
    # telling an overflow from noise is the caller's verdict: on either
    # branch any fraction at or above the top fits to the bracket end
    for sign in (1, -1):
        top = predicted_fraction(sign * 0.1, 1)
        for f in (top, top + 1e-6, predicted_fraction(0.1, 1) + 0.01, 1.0):
            assert _fit(f, None, 0.0, 1, 0.1, sign) == (0.1, (0.1, 0.1))
            m, (_, hi) = _fit(f, 900, 3.0, 1, 0.1, sign)
            assert m == hi == 0.1


def test_invert_fraction_validation():
    with pytest.raises(ParameterError):
        _fit(0.01, None, 0.0, 0, 0.1, 1)
    with pytest.raises(ParameterError):
        _fit(-0.01, None, 0.0, 1, 0.1, 1)
    with pytest.raises(ParameterError):
        _fit(0.01, None, 0.0, 1, 0.5, 1)  # beyond the monotone bracket
    with pytest.raises(ParameterError):
        _fit(0.01, None, 0.0, 1, 0.0, 1)


def test_monotone_on_bracket():
    # both branches m -> f(sign*m, beta) share the bracket [0, sign_bracket]
    for beta in range(1, 201):
        grid = np.linspace(0.0, sign_bracket(beta), 401)
        for sign in (1, -1):
            vals = [predicted_fraction(sign * float(e), beta) for e in grid]
            assert all(b > a for a, b in zip(vals, vals[1:])), (beta, sign)


def test_inversion_recovers_both_branches_in_few_evaluations(monkeypatch):
    evals = Counter()

    def counted(eps, beta):
        evals["n"] += 1
        evals[eps, beta] += 1
        return predicted_fraction(eps, beta)

    monkeypatch.setattr(estimator, "predicted_fraction", counted)
    for beta in (1, 2, 3, 5, 12, 16, 36, 100, 200):
        hi = sign_bracket(beta)
        for sign in (1, -1):
            for eps in np.linspace(0.0, hi, 41):
                f = predicted_fraction(sign * float(eps), beta)
                evals.clear()
                m = _fit(f, None, 0.0, beta, hi, sign)[0]
                assert abs(m - eps) <= 1e-12, (beta, sign, eps)
                assert evals["n"] <= 24, (beta, sign, eps, evals["n"])

    # a sampled fit inverts three fractions against one bracket top
    for beta, sign in ((1, 1), (4, 1), (4, -1)):
        evals.clear()
        m, (lo, hi) = _fit(predicted_fraction(sign * 0.05, beta), 400, 3.0,
                           beta, 0.1, sign)
        assert lo < m < hi
        assert evals[sign * 0.1, beta] == 1, (beta, sign)


# ------------------------------------------------------------- intervals

def test_confidence_interval_exact_collapses_to_point():
    f = predicted_fraction(0.05, 1)
    lo, hi = _fit(f, None, 3.0, 1, 0.1, 1)[1]
    assert lo == hi == pytest.approx(0.05, abs=1e-11)


def test_confidence_interval_band_endpoints():
    f = predicted_fraction(0.05, 1)
    lo, hi = _fit(f, 900, 3.0, 1, 0.1, 1)[1]  # half-width 0.1 in f
    assert lo == 0.0  # f - 0.1 < 0 clamps to zero
    assert hi == pytest.approx(0.1, abs=1e-11)  # f + 0.1 beyond top clamps
    lo2, hi2 = _fit(f, 4000000, 3.0, 1, 0.1, 1)[1]
    assert lo2 < 0.05 < hi2
    assert hi2 - lo2 < 0.01


# ------------------------------------------------------------- estimates

def test_estimate_positive_imbalance(d32):
    rec = eps_est(d32, 17.0)
    assert rec.sign == 1
    assert rec.verdict == "ok"
    assert abs(rec.eps_hat - 0.0625) < 1e-9
    assert rec.ci_lo == rec.ci_hi == rec.eps_hat
    assert rec.f_hat == rec.exact_p
    assert rec.exact_p == pytest.approx(predicted_fraction(0.0625, 1), abs=1e-14)
    assert (rec.alpha, rec.beta) == (100, 1)
    assert (rec.eps0, rec.theta, rec.kappa) == (0.1, 0.1, 3.0)
    assert (rec.mode, rec.seed, rec.n) == ("exact", 0, 5)


def test_estimate_negative_imbalance(d32):
    rec = eps_est(d32, 15.0)
    assert rec.sign == -1
    assert abs(rec.eps_hat + 0.0625) < 1e-9
    assert rec.ci_lo == rec.ci_hi == -rec.eps_hat
    assert rec.verdict == "ok"


def test_estimate_balanced(d32):
    rec = eps_est(d32, 16.0)
    assert rec.sign is None
    assert rec.eps_hat == 0.0
    assert rec.f_hat == 0.0
    assert rec.verdict == "ok"


def test_estimate_negative_branch_refit_beats_positive_inversion(d32):
    # inverting f(-m) on the positive branch leaves a cubic-order bias;
    # the refit removes it
    rec = eps_est(d32, 15.0)
    f = rec.f_hat
    m_pos = _fit(f, None, 0.0, rec.beta, rec.eps0, 1)[0]
    assert abs(rec.eps_hat + 0.0625) < abs(m_pos - 0.0625)


def test_estimate_out_of_range_positive(d32):
    rec = eps_est(d32, 24.0)  # true imbalance +0.5
    assert rec.verdict == "eps_exceeds_eps0"
    assert rec.sign == 1
    assert rec.eps_hat == 0.1
    assert (rec.ci_lo, rec.ci_hi) == (0.1, 1.0)


def test_estimate_out_of_range_negative(d32):
    rec = eps_est(d32, 8.0)  # true imbalance -0.5
    assert rec.verdict == "eps_exceeds_eps0"
    assert rec.sign == -1
    assert rec.eps_hat == -0.1


def test_estimate_accuracy_and_sign_across_small_grid(d1024):
    for n_below in (527, 532, 543, 561, 563):
        mu = float(n_below) - 0.5
        true_eps = (2 * n_below - 1024) / 1024
        rec = eps_est(d1024, mu)
        assert rec.sign == 1
        assert abs(rec.eps_hat - true_eps) < 1e-9
        rec_neg = eps_est(d1024, 1024.0 - n_below - 0.5)
        assert rec_neg.sign == -1
        assert abs(rec_neg.eps_hat + true_eps) < 1e-9


def test_estimate_sampled_known_record(d1024):
    rec = eps_est(d1024, 543.5, eps0=0.1, theta=0.01, kappa=3.0,
                  mode="sampled", seed=3)
    assert rec.eps_hat == pytest.approx(0.062041077749381654, abs=1e-12)
    assert rec.sign == 1
    assert rec.f_hat == 0.0254
    assert rec.exact_p == pytest.approx(0.02577832341194153, abs=1e-14)
    assert (rec.ci_lo, rec.ci_hi) == (
        pytest.approx(0.0, abs=1e-12), pytest.approx(0.0915874708847696, abs=1e-12))
    assert rec.alpha == 10000
    assert rec.verdict == "ok"
    # the magnitude interval brackets the truth
    assert rec.ci_lo <= 0.0625 <= rec.ci_hi


def test_estimate_sampled_negative_side(d1024):
    rec = eps_est(d1024, 479.5, eps0=0.1, theta=0.01, kappa=3.0,
                  mode="sampled", seed=3)
    assert rec.sign == -1
    assert rec.eps_hat == pytest.approx(-0.062009286714237534, abs=1e-12)
    assert rec.verdict == "ok"


def test_estimate_sampled_balanced_stays_unsigned(d1024):
    rec = eps_est(d1024, 512.0, eps0=0.1, theta=0.01, kappa=3.0,
                  mode="sampled", seed=3)
    assert rec.sign is None
    assert rec.eps_hat == 0.0
    assert rec.f_hat == 0.0


def test_estimate_sampled_out_of_range_probes_sign(d1024):
    rec = eps_est(d1024, 767.5, mode="sampled", seed=0)
    assert (rec.verdict, rec.sign, rec.eps_hat) == ("eps_exceeds_eps0", 1, 0.1)
    rec = eps_est(d1024, 255.5, mode="sampled", seed=0)
    assert (rec.verdict, rec.sign, rec.eps_hat) == ("eps_exceeds_eps0", -1, -0.1)


def test_estimate_deterministic(d1024):
    a = eps_est(d1024, 543.5, theta=0.05, mode="sampled", seed=21)
    b = eps_est(d1024, 543.5, theta=0.05, mode="sampled", seed=21)
    assert a == b


def test_estimate_respects_overrides(d1024):
    rec = eps_est(d1024, 543.5, alpha=7, beta=2, mode="sampled", seed=1)
    assert rec.alpha == 7
    assert rec.beta == 2


def test_estimate_tight_scale_shrinks_interval(d1024):
    # same data, tighter prior bound: more loop passes, narrower bracket
    wide = eps_est(d1024, 514.5, eps0=0.1, theta=0.01, mode="sampled", seed=2)
    tight = eps_est(d1024, 514.5, eps0=0.0125, theta=0.01, mode="sampled", seed=2)
    assert (wide.verdict, tight.verdict) == ("ok", "ok")
    assert tight.beta == 4
    assert (tight.ci_hi - tight.ci_lo) < (wide.ci_hi - wide.ci_lo)


def test_estimate_mu_below_everything(d32):
    rec = eps_est(d32, -5.0)  # nothing below: imbalance -1
    assert rec.verdict == "eps_exceeds_eps0"
    assert rec.sign == -1
    assert rec.eps_hat == -0.1


def test_estimate_detects_aliased_extreme_imbalance(d1024):
    # far outside the bracket the fraction curve bends back down: a single
    # below value (imbalance ~ -1) or 960 of them (+0.875) produce a small
    # fraction that a naive inversion would misread as a small in-range
    # imbalance; the exact partition counts flag the overflow instead
    for mu, sign in ((0.5, -1), (959.5, 1)):
        rec = eps_est(d1024, mu)
        assert (rec.verdict, rec.sign, rec.eps_hat) == (
            "eps_exceeds_eps0", sign, sign * 0.1)
        assert (rec.ci_lo, rec.ci_hi) == (0.1, 1.0)
        assert 0.0 < rec.f_hat < 0.05  # the aliased fraction itself is tiny


@pytest.fixture(scope="module")
def d_ties():
    # eps = -1/128 at mu = 0.5, with 100 tied ones just above it: moving the
    # threshold past the next value would jump to eps = +0.1875
    return dataset_from_values(
        np.concatenate([np.zeros(508), np.ones(100), np.arange(2.0, 418.0)]))


def test_estimate_exact_heavy_ties_just_above_mu(d_ties):
    rec = eps_est(d_ties, 0.5)
    assert (rec.verdict, rec.sign) == ("ok", -1)
    assert abs(rec.eps_hat + 0.0078125) < 1e-9
    assert rec.ci_lo == rec.ci_hi == -rec.eps_hat


def test_estimate_exact_runs_one_experiment(d1024, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run_experiment", "make_oracle"):
        monkeypatch.setattr(estimator, name, counted(name, getattr(estimator, name)))
    # exact: positive, negative, balanced, and overflow on either side;
    # sampled: positive, negative, balanced, and overflow
    cases = [(mu, {}) for mu in (543.5, 479.5, 512.0, 959.5, 0.5)]
    cases += [(mu, dict(theta=0.01, mode="sampled", seed=3))
              for mu in (543.5, 479.5, 512.0, 767.5)]
    for mu, kwargs in cases:
        calls.clear()
        eps_est(d1024, mu, **kwargs)
        assert dict(calls) == {"run_experiment": 1, "make_oracle": 1}, (mu, kwargs)


def test_estimate_exact_fits_once_on_the_partition_sign(d1024, monkeypatch):
    fits = []
    inner = estimator._fit

    def recorded(*args):
        fits.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(estimator, "_fit", recorded)
    rec = eps_est(d1024, 479.5)  # eps = -0.0625, inside the bracket
    assert fits == [-1]
    assert rec.eps_hat == pytest.approx(-0.0625, abs=1e-12)
    fits.clear()
    eps_est(d1024, 543.5)  # eps = +0.0625
    assert fits == [1]

def test_estimate_exact_overflow_is_symmetric_just_past_eps0(d1024):
    # |eps| = 0.1015625 just exceeds eps0 = 0.1 on both sides; the negative
    # fraction lies above the negative bracket, whose top is eps0
    for mu, sign in ((459.5, -1), (563.5, 1)):
        rec = eps_est(d1024, mu)
        assert (rec.verdict, rec.sign, rec.eps_hat) == (
            "eps_exceeds_eps0", sign, sign * 0.1)
        assert (rec.ci_lo, rec.ci_hi) == (0.1, 1.0)


def test_estimate_beta_override_fits_on_the_negative_branch(d1024):
    # beta=2 keeps both branches monotone on [0, eps0], so a negative
    # imbalance inverts on its own branch, exactly
    rec = eps_est(d1024, 475.5, beta=2)  # eps = -0.0703125
    assert (rec.verdict, rec.sign) == ("ok", -1)
    assert abs(rec.eps_hat + 0.0703125) <= 1e-12
    assert rec.ci_lo == rec.ci_hi == -rec.eps_hat


def test_estimate_sampled_negative_sign_clamps_above_bracket(d1024):
    # eps = -0.0957; noise puts f_hat = 0.0638 above f(-0.1, 1) = 0.0612, the
    # negative branch's top, but not above f(+0.1, 1) = 0.0660, the overflow
    # rule's top: the fit on the negative branch clamps to eps0
    rec = eps_est(d1024, 462.5, theta=0.03, mode="sampled", seed=5)
    assert (rec.verdict, rec.sign) == ("ok", -1)
    assert predicted_fraction(-0.1, 1) < rec.f_hat <= predicted_fraction(0.1, 1)
    assert (rec.eps_hat, rec.ci_hi) == (-0.1, 0.1)
    assert rec.ci_lo <= 98 / 1024


def test_estimate_all_equal_dataset_exact():
    d = dataset_from_values(np.full(64, 7.0))
    # values equal to mu count as above: mu = 7.0 leaves nothing below
    for mu, sign in ((7.0, -1), (7.5, 1), (6.0, -1)):
        rec = eps_est(d, mu)
        assert (rec.verdict, rec.sign, rec.eps_hat) == (
            "eps_exceeds_eps0", sign, sign * 0.1)
        assert (rec.ci_lo, rec.ci_hi) == (0.1, 1.0)
    # sampled mode: the arm ladder reads eps = -1, but the aliased fraction
    # f(-1, beta) = 0 still fits to magnitude 0 (eps_hat is -0.0)
    for mu in (7.0, 6.0):
        rec = eps_est(d, mu, mode="sampled")
        assert (rec.verdict, rec.sign, rec.eps_hat) == ("ok", -1, 0.0)


def test_estimate_sampled_heavy_ties_never_read_positive(d_ties):
    # eps = -1/128 is 0.67 times the arms' offset delta = 12/1024; the ladder
    # may leave the sign undecided inside its noise, but never reads +1
    for seed in range(10):
        rec = eps_est(d_ties, 0.5, eps0=0.0125, theta=0.01, mode="sampled",
                      seed=seed)
        assert rec.sign != 1, seed


def test_estimate_sampled_mu_above_every_value(d1024):
    rec = eps_est(d1024, 2000.0, mode="sampled", seed=1)
    assert (rec.verdict, rec.sign, rec.eps_hat) == ("eps_exceeds_eps0", 1, 0.1)
    assert (rec.ci_lo, rec.ci_hi) == (0.1, 1.0)


def test_beta_override_with_narrow_bracket_rejected_before_the_experiment(
        d1024, monkeypatch):
    # sign_bracket(40) = 0.01125 < eps0: no mu or mode may reach an experiment,
    # including the exact overflow at mu 50.5 that never fits
    def refuse(*args, **kwargs):
        raise AssertionError("experiment built")

    monkeypatch.setattr(estimator, "make_oracle", refuse)
    for mu in (50.5, 511.5):
        for mode in ("exact", "sampled"):
            with pytest.raises(ParameterError):
                eps_est(d1024, mu, eps0=0.1, beta=40, mode=mode)


@pytest.mark.parametrize("n, n_below, scale", [
    (6, 30, 0.1), (10, 543, 0.1), (10, 479, 0.1), (11, 1030, 0.0125),
    (10, 100, 0.25),
])
def test_sign_arm_is_a_one_ancilla_register_experiment(n, n_below, scale):
    # each arm is the loop on the (n+1)-bit register whose ancilla half holds
    # (1 + s*delta)*N/2 more below states; its below fraction after beta'
    # passes is the closed form the arm draws from
    size = 1 << n
    eps = (2 * n_below - size) / size
    delta, beta, _, _ = _arm_design(size, scale, 3.0)
    assert delta * beta <= estimator.MONOTONE_CAP
    for s in (1, -1):
        padded = grid_oracle(n + 1, n_below + round((1 + s * delta) * size / 2))
        assert padded.eps == (eps + s * delta) / 2
        last = list(evolve(padded, beta))[-1]
        assert abs(last.p - predicted_fraction((eps + s * delta) / 2, beta)) < 1e-10


def test_coarse_arms_keep_the_sign_over_the_whole_range():
    # at offset 1/4 and one pass the arms' offset-corrected difference has the
    # sign of eps on every grid point of a 2^14 register, and clears the
    # test's gate c/2 by at least c/2 wherever |eps| >= 0.05
    size = 1 << 14
    delta, beta, alpha, offset = _arm_design(size, estimator._COARSE_SCALE, 3.0)
    assert (delta, beta) == (0.25, 1)
    half_gate = 3.0 * math.sqrt(1.0 / alpha)  # c/2 == 2*kappa/sqrt(alpha)/2
    for j in range(size + 1):
        eps = (2 * j - size) / size
        diff = (predicted_fraction((eps + delta) / 2, beta)
                - predicted_fraction((eps - delta) / 2, beta) - offset)
        assert diff * eps >= 0.0, eps
        if abs(eps) >= 0.05:
            assert abs(diff) >= 2 * half_gate - 1e-12, eps


def test_arm_ladder_offsets_halve_down_to_eps0():
    assert list(estimator._ladder(0.1)) == [0.25, 0.125, 0.1]
    assert list(estimator._ladder(0.0625)) == [0.25, 0.125, 0.0625]
    assert list(estimator._ladder(0.0125)) == [
        0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0125]


@pytest.mark.parametrize("eps0", [0.1, 0.0125])
def test_arm_ladder_sign_is_right_or_undecided(eps0):
    # |eps| from below 3.4*eps0 (the last rung's sign range) up to 0.05 (the
    # top rung's resolution), where a single fine pair may misread the sign,
    # and far past it, where only the top rung reads it right
    for mag in (0.006, 0.02, 0.0425, 0.045, 0.05, 0.3, 0.98):
        for sign in (1, -1):
            for seed in range(3):
                d, _ = synth_dataset(14, sign * mag, 0.5, seed)
                got = estimator._arm_sign(make_oracle(d, 0.5), 3.0, seed, eps0)
                assert got in (sign, None), (mag, sign, seed)
                if mag >= 0.3:
                    assert got == sign, (mag, sign, seed)


def test_sampled_sign_in_bracket_makes_no_classical_draw(monkeypatch):
    # the arm ladder decides every sampled sign, in the bracket and on
    # overflow, with no classical draw
    def refuse(*args, **kwargs):
        raise AssertionError("classical draw")

    monkeypatch.setattr(estimator, "classical_estimate", refuse)
    for sign in (1, -1):
        for seed in range(4):
            d, _ = synth_dataset(14, sign * 0.03, 0.5, seed)
            assert estimator._arm_sign(make_oracle(d, 0.5), 3.0, seed, 0.1) == sign, seed
            # the estimate takes that sign whatever its readout's precision
            for theta in (0.03, 0.005):
                rec = eps_est(d, 0.5, eps0=0.1, theta=theta, mode="sampled", seed=seed)
                assert (rec.verdict, rec.sign) == ("ok", sign), (theta, seed)
            # overflowing fractions take their sign from the same ladder
            for eps0, mag in ((0.1, 0.3), (0.0125, 0.045)):
                d, _ = synth_dataset(14, sign * mag, 0.5, seed)
                rec = eps_est(d, 0.5, eps0=eps0, mode="sampled", seed=seed)
                assert (rec.verdict, rec.sign, rec.eps_hat) == (
                    "eps_exceeds_eps0", sign, sign * eps0), (eps0, seed)
    values = np.random.default_rng(4).random(1 << 14) * 1000.0
    d = dataset_from_values(values)
    mu_hat, steps, _ = median_search_counted(d, 0.0, 1000.0, 1000.0 / 2**20, 0.002,
                                             mode="sampled", seed=1)
    assert steps == 13  # 12 midpoints decided; the search stopped at the 13th
    assert abs(int(np.count_nonzero(values < mu_hat)) - (1 << 13)) <= 0.01 * (1 << 14) + 2


def _binom_tail(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p)**(n - j) for j in range(k, n + 1))


def test_sampled_estimates_are_calibrated():
    # 25 seeds per cell of eps0 x theta x |eps|/eps0 x sign on 2^14 values.
    # Each claim holds with probability at least 1 - p, p = 2*exp(-2*kappa^2):
    # the interval covers |eps|, and the ladder's last rung, at offset eps0,
    # decides |eps| >= ACCEPT_FACTOR*eps0.  An observed failure count passes
    # while its Clopper-Pearson lower bound at confidence 0.999 stays at or
    # below p, i.e. while P(X >= count) >= 0.001 at rate p.  False overflows
    # are not asserted: 7-9 of 25 per cell at 0.9*eps0, except 1 of 25 at
    # eps0 0.1, theta 0.03 (ROADMAP, band-aware sampled overflow).
    p = 2.0 * math.exp(-2.0 * 3.0**2)
    wrong = misses = ok = undecided = fine = 0
    for eps0 in (0.1, 0.0125):
        for ratio in (0.3, 0.9):
            for sign in (1, -1):
                for seed in range(25):
                    d, eps = synth_dataset(14, sign * ratio * eps0, 0.5, seed)
                    for theta in (0.1, 0.03):
                        rec = eps_est(d, 0.5, eps0=eps0, theta=theta,
                                      mode="sampled", seed=seed)
                        wrong += rec.sign == -sign
                        if rec.verdict == "ok":
                            ok += 1
                            misses += not rec.ci_lo <= abs(eps) <= rec.ci_hi
                        if ratio == 0.3:
                            fine += 1
                            undecided += rec.sign is None
    assert wrong == 0
    assert _binom_tail(misses, ok, p) >= 1e-3, misses
    assert _binom_tail(undecided, fine, p) >= 1e-3, undecided
