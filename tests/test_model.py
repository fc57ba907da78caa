"""The two-amplitude analytic model: transfer, closed forms, conserved
quantity, and the measured-fraction formula."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmedian import (
    ParameterError,
    TwoAmpState,
    conserved_quantity,
    k_closed_form,
    k_small_eps_approx,
    l_closed_form,
    loop_step,
    post_shift,
    predicted_fraction,
)
from qmedian.model import TWO_SQRT2, _iterate_from_prepared, predicted_fractions


def test_post_shift_pair():
    s = post_shift(0.125)
    assert s.k == 0.125 + 0j
    assert s.l == complex(1.125, 1.0)
    assert s.eps == 0.125
    with pytest.raises(ParameterError):
        post_shift(1.5)


def test_one_loop_pass_is_exact_rational():
    s = loop_step(post_shift(0.125))
    assert s.k == complex(47 / 128, 7 / 32)
    assert s.l == complex(135 / 128, 31 / 32)
    assert abs(s.k) ** 2 == pytest.approx(2993 / 16384, rel=1e-15)


def test_loop_step_transfer_coefficients():
    e = 0.1
    s = loop_step(TwoAmpState(1 + 0j, 0j, e))
    assert (s.k, s.l) == (complex(0.98), complex(-0.22000000000000003))
    s = loop_step(TwoAmpState(0j, 1 + 0j, e))
    assert (s.k, s.l) == (complex(0.18), complex(0.98))


def test_conserved_quantity_starts_at_two_and_stays():
    for eps in (0.125, -0.125, 0.0625, 0.02, -0.009):
        s = post_shift(eps)
        assert conserved_quantity(s) == pytest.approx(2.0, abs=1e-15)
        for _ in range(20):
            s = loop_step(s)
            assert conserved_quantity(s) == pytest.approx(2.0, abs=1e-13)


def test_closed_form_matches_recurrence():
    worst = 0.0
    for j in (1, 2, 5, 16, 64, 100, 128):
        for sign in (1.0, -1.0):
            eps = sign * 2 * j / 1024
            s = post_shift(eps)
            for r in range(201):
                worst = max(worst, abs(s.k - k_closed_form(eps, r)))
                worst = max(worst, abs(s.l - l_closed_form(eps, r)))
                s = loop_step(s)
    assert worst < 1e-12


def test_closed_form_at_zero_imbalance():
    # eps = 0: k stays 0, l stays (1 + i) forever
    for r in (0, 1, 7, 1000):
        assert k_closed_form(0.0, r) == 0j
        assert l_closed_form(0.0, r) == complex(1.0, 1.0)
        # a signed zero gives the same +0 parts, not (-0-0j)
        assert repr(k_closed_form(-0.0, r)) == "0j"


def test_closed_form_at_full_imbalance():
    # |eps| = 1 degenerates the angle decomposition; the recurrence is exact
    for r in range(6):
        assert k_closed_form(1.0, r) == (-1.0) ** r
        assert k_closed_form(-1.0, r) == (-1.0) ** r * complex(-1.0, 4.0 * r)
        it = _iterate_from_prepared(1.0, r)
        assert (it.k, it.l) == (k_closed_form(1.0, r), l_closed_form(1.0, r))


def test_closed_form_rejects_negative_step_count():
    with pytest.raises(ParameterError):
        k_closed_form(0.1, -1)
    with pytest.raises(ParameterError):
        l_closed_form(0.1, -1)
    with pytest.raises(ParameterError):
        predicted_fraction(0.1, -1)


def test_closed_form_rejects_eps_outside_unit_interval():
    for eps in (2.0, -1.5, math.nan):
        for f in (k_closed_form, l_closed_form, predicted_fraction):
            with pytest.raises(ParameterError, match="eps must lie in"):
                f(eps, 1)


def test_predicted_fraction_known_values():
    assert abs(predicted_fraction(0.125, 1) - 26937 / 262144) < 1e-16
    assert abs(predicted_fraction(0.125, 1) - 0.10275650024414063) < 1e-13
    assert predicted_fraction(0.0625, 1) == pytest.approx(
        0.025778323411941532, rel=1e-14)
    assert predicted_fraction(0.1, 1) == pytest.approx(
        0.06600880000000008, rel=1e-14)
    assert predicted_fraction(-0.1, 1) == pytest.approx(
        0.061207200000000066, rel=1e-14)
    assert predicted_fraction(0.5, 1) == pytest.approx(0.9375, rel=1e-14)
    assert predicted_fraction(0.2, 0) == pytest.approx(0.024, rel=1e-12)
    assert predicted_fraction(1.0, 3) == pytest.approx(1.0, rel=1e-14)
    assert predicted_fraction(-1.0, 3) == 0.0
    assert predicted_fraction(0.0, 5) == 0.0


def test_predicted_fractions_match_the_scalar_form():
    # the array form the sign-test design evaluates its grids with: the same
    # closed form, within numpy's and the C library's rounding of sin, cos
    # and arcsin
    eps = np.concatenate([np.linspace(-0.99, 0.99, 2001), [0.0, -0.0, 1e-9, -1e-9]])
    for beta in (0, 1, 7, 14, 57, 89, 300):
        want = np.array([predicted_fraction(float(e), beta) for e in eps])
        np.testing.assert_allclose(predicted_fractions(eps, beta), want,
                                   rtol=1e-11, atol=1e-15)
    with pytest.raises(ParameterError):
        predicted_fractions(eps, -1)


def test_branch_asymmetry_is_cubic_and_small():
    # f(+eps) - f(-eps) ~ 4*beta*eps^3: tiny but nonzero
    gap = predicted_fraction(0.1, 1) - predicted_fraction(-0.1, 1)
    assert gap == pytest.approx(0.0048, rel=0.25)
    assert gap > 0


def test_growth_law_approximation():
    assert k_small_eps_approx(0.001, 50) == 0.1414213562373095
    assert TWO_SQRT2 == 2 * math.sqrt(2)
    ratios = {r: abs(k_closed_form(0.001, r)) / k_small_eps_approx(0.001, r)
              for r in (10, 20, 50)}
    # exact values, from the loop_step recurrence in rational arithmetic
    assert ratios[10] == pytest.approx(1.0247457197192547, rel=1e-12)
    assert ratios[20] == pytest.approx(1.0118070363610177, rel=1e-12)
    assert ratios[50] == pytest.approx(1.0028251242491781, rel=1e-12)
    with pytest.raises(ParameterError):
        k_small_eps_approx(-0.1, 5)
    with pytest.raises(ParameterError):
        k_small_eps_approx(0.1, -5)


def test_amplitude_swells_until_half_then_rotates():
    # |k_r| reaches 0.5 after ~1/(4*sqrt(2)*eps) passes, doubling as eps halves
    def r_star(eps):
        r = 0
        while abs(k_closed_form(eps, r)) < 0.5:
            r += 1
        return r

    assert r_star(0.004) == 46
    assert r_star(0.002) == 91
    assert r_star(0.001) == 181
    assert r_star(0.0005) == 362


def test_closed_form_matches_rational_recurrence_at_small_eps():
    # the loop_step recurrence run exactly on the float eps; a loop angle
    # taken as acos(1 - 2 eps^2) loses it to cancellation (phi rounds to 0
    # at 1e-9), so the closed form must stay relatively exact down there
    for eps in (1e-3, -1e-3, 1e-6, 1e-9):
        e = Fraction(eps)
        diag, off, off2 = 1 - 2 * e * e, 2 * e - 2 * e * e, 2 * e + 2 * e * e
        kr, ki, lr, li = e, Fraction(0), 1 + e, Fraction(1)
        for r in range(101):
            want = complex(kr, ki)
            assert abs(k_closed_form(eps, r) - want) <= 1e-12 * abs(want), (eps, r)
            kr, ki, lr, li = (diag * kr + off * lr, diag * ki + off * li,
                              -off2 * kr + diag * lr, -off2 * ki + diag * li)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-255, max_value=255), st.integers(min_value=0, max_value=60))
def test_closed_form_equals_recurrence_property(j, r):
    eps = 2 * j / 1024
    assert k_closed_form(eps, r) == pytest.approx(
        _iterate_from_prepared(eps, r).k, abs=1e-11)
    assert conserved_quantity(_iterate_from_prepared(eps, r)) == pytest.approx(
        2.0, abs=1e-12)
