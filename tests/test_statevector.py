"""Register transforms: definitions, unitarity, and dense cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmedian import (
    NumericalError,
    ParameterError,
    RandomStream,
    StateVector,
    conditional_phase,
    derive_seed,
    diffusion,
    probability_of,
    shift,
    uniform_state,
    walsh_hadamard,
)
from qmedian.checks import random_mask, random_state
from qmedian.dense import (
    MAX_DENSE_BITS,
    dense_d,
    dense_f,
    dense_r,
    dense_s,
    dense_t,
)
from qmedian.statevector import MAX_BITS, as_mask, sample, sample_many


# ------------------------------------------------------------ construction

def test_uniform_state_single_bit_amplitude_is_exact():
    st1 = uniform_state(1)
    assert st1.amps[0] == 0.7071067811865476
    assert st1.amps.tolist() == [0.7071067811865476] * 2


def test_uniform_state_properties():
    st5 = uniform_state(5)
    assert st5.size == 32
    assert st5.amps.dtype == np.complex128
    assert np.all(st5.amps == st5.amps[0])
    assert st5.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_bit_count_bounds():
    with pytest.raises(ParameterError):
        uniform_state(0)
    with pytest.raises(ParameterError):
        uniform_state(MAX_BITS + 1)


def test_copy_is_independent():
    a = uniform_state(3)
    b = a.copy()
    b.amps[0] = 0.0
    assert a.amps[0] != 0.0


# ------------------------------------------------------------ masks

def _mask(n, *indices):
    """Boolean mask of length 2^n, True at the given basis indices."""
    mask = np.zeros(1 << n, dtype=bool)
    mask[list(indices)] = True
    return mask


def test_as_mask_accepts_a_bool_array():
    mask = _mask(2, 0, 2)
    assert as_mask(2, mask) is mask


def test_as_mask_rejects_bad_input():
    for bad in (np.array([True, False]),  # wrong length
                [0, 2], {0, 2}, [], [4], [-1],  # index lists and sets
                [True, False, True, False],  # a list, not an array
                np.array([1, 0, 1, 0])):  # not boolean
        with pytest.raises(IndexError):
            as_mask(2, bad)


# ------------------------------------------------------------ transforms

def test_walsh_hadamard_collapses_uniform_state():
    st3 = walsh_hadamard(uniform_state(3))
    assert abs(st3.amps[0] - 1.0) < 1e-15
    assert np.all(np.abs(st3.amps[1:]) < 1e-15)


def test_walsh_hadamard_is_involution():
    orig = random_state(6, 11)
    back = walsh_hadamard(walsh_hadamard(orig.copy()))
    assert np.max(np.abs(back.amps - orig.amps)) < 1e-14


def test_walsh_hadamard_matches_dense_matrix():
    for n in range(1, MAX_DENSE_BITS + 1):
        s = random_state(n, 100 + n)
        got = walsh_hadamard(s.copy()).amps
        want = dense_f(n) @ s.amps
        assert np.max(np.abs(got - want)) < 1e-13


def test_dense_f_first_row_and_sign_pattern():
    f = dense_f(2)
    assert np.all(f[0] == 0.5)
    assert f[1, 1] == -0.5
    assert f[3, 3] == 0.5  # bits 11 . 11 -> two shared bits -> even parity


def test_conditional_phase_pi_negates_masked():
    s = uniform_state(3)
    before = s.amps.copy()
    conditional_phase(s, _mask(3, 1, 5), math.pi)
    assert s.amps[1] == -before[1]
    assert s.amps[5] == -before[5]
    assert np.all(s.amps[[0, 2, 3, 4, 6, 7]] == before[[0, 2, 3, 4, 6, 7]])


def test_conditional_phase_half_pi_multiplies_by_i():
    s = uniform_state(2)
    a0 = s.amps[2]
    conditional_phase(s, _mask(2, 2), math.pi / 2)
    assert s.amps[2] == a0 * 1j


def test_conditional_phase_general_angle():
    s = random_state(3, 5)
    a0 = s.amps.copy()
    conditional_phase(s, _mask(3, 0, 7), 0.7)
    w = complex(math.cos(0.7), math.sin(0.7))
    assert abs(s.amps[0] - a0[0] * w) < 1e-16
    assert abs(s.amps[7] - a0[7] * w) < 1e-16


def test_conditional_phase_zero_angle_is_identity():
    s = random_state(3, 6)
    a0 = s.amps.copy()
    conditional_phase(s, _mask(3, 1, 2), 0.0)
    assert np.all(s.amps == a0)


def test_diffusion_is_inversion_about_mean():
    s = StateVector(1, np.array([0.8, 0.6], dtype=np.complex128))
    diffusion(s)
    # mean 0.7: amplitudes map to 1.4 - a
    assert s.amps.tolist() == [(1.4 - 0.8), (1.4 - 0.6)]


def test_diffusion_matches_dense_factorization():
    for n in range(1, MAX_DENSE_BITS + 1):
        s = random_state(n, 200 + n)
        got = diffusion(s.copy()).amps
        want = dense_f(n) @ dense_t(n) @ dense_f(n) @ s.amps
        assert np.max(np.abs(got - want)) < 1e-13
        want2 = dense_d(n) @ s.amps
        assert np.max(np.abs(got - want2)) < 1e-13


def test_shift_matches_dense_factorization():
    for n in range(1, MAX_DENSE_BITS + 1):
        s = random_state(n, 300 + n)
        got = shift(s.copy()).amps
        want = dense_f(n) @ dense_r(n) @ dense_f(n) @ s.amps
        assert np.max(np.abs(got - want)) < 1e-13
        want2 = dense_s(n) @ s.amps
        assert np.max(np.abs(got - want2)) < 1e-13


def test_shift_formula_by_hand():
    s = StateVector(1, np.array([1.0, 0.0], dtype=np.complex128))
    shift(s)
    # mean 0.5: a' = (1+i)*0.5 - i*a
    assert s.amps[0] == complex(0.5, 0.5) - 1j
    assert s.amps[1] == complex(0.5, 0.5)


def test_transforms_mutate_in_place_and_return_state():
    s = uniform_state(2)
    assert walsh_hadamard(s) is s
    assert diffusion(s) is s
    assert shift(s) is s
    assert conditional_phase(s, _mask(2, 0), 1.0) is s


def test_dense_size_cap():
    with pytest.raises(ParameterError):
        dense_f(MAX_DENSE_BITS + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=-7.0, max_value=7.0, allow_nan=False))
def test_all_transforms_preserve_norm(n, seed, angle):
    s = random_state(n, seed)
    mask = random_mask(n, seed)
    for op in (walsh_hadamard, diffusion, shift,
               lambda x: conditional_phase(x, mask, angle)):
        assert abs(op(s.copy()).norm_sq() - 1.0) < 1e-12


# ------------------------------------------------------------ measurement

def test_probability_of_sums_masked_weight():
    s = StateVector(1, np.array([0.6, 0.8j], dtype=np.complex128))
    assert probability_of(s, _mask(1, 0)) == pytest.approx(0.36, abs=1e-15)
    assert probability_of(s, _mask(1, 1)) == pytest.approx(0.64, abs=1e-15)
    assert probability_of(s, _mask(1, 0, 1)) == pytest.approx(1.0, abs=1e-15)


def test_sample_lands_on_support():
    s = StateVector(2, np.array([0, 1, 0, 0], dtype=np.complex128))
    for seed in range(5):
        assert sample(s, RandomStream(seed)) == 1


def test_sample_uses_cdf_order():
    s = StateVector(1, np.array([math.sqrt(0.5), math.sqrt(0.5)],
                                dtype=np.complex128))
    # first uniform for seed 0 is 0.8833... > 0.5 -> index 1
    assert sample(s, RandomStream(0)) == 1
    # first uniform for seed 1 is 0.5665... > 0.5 -> index 1
    assert sample(s, RandomStream(1)) == 1
    # first uniform for seed 12 is below 0.5 -> index 0
    u = RandomStream(12).next_float()
    assert (sample(s, RandomStream(12)) == 0) == (u < 0.5)


def test_sample_many_matches_scalar_sample():
    s = random_state(5, 77)
    seeds = [derive_seed(9, j) for j in range(32)]
    uniforms = np.array([RandomStream(x).next_float() for x in seeds])
    got = sample_many(s, uniforms)
    want = [sample(s, RandomStream(x)) for x in seeds]
    assert got.tolist() == want


def test_sample_top_edge_clamps_to_last_index():
    s = uniform_state(2)
    assert int(sample_many(s, np.array([1.0 - 1e-16]))[0]) == 3
    assert int(sample_many(s, np.array([0.0]))[0]) == 0


def test_sampling_zero_state_raises():
    z = StateVector(2, np.zeros(4, dtype=np.complex128))
    with pytest.raises(NumericalError):
        sample(z, RandomStream(0))
    with pytest.raises(NumericalError):
        sample_many(z, np.array([0.5]))
