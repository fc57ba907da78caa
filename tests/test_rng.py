"""Bit-exactness of the seeded generator and its derived sub-streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmedian import RandomStream, bulk_uniforms, derive_seed, mix64
from qmedian.rng import bernoulli_counts


def test_stream_seed0_known_words():
    rs = RandomStream(0)
    assert rs.next_u64() == 0xE220A8397B1DCDAF
    assert rs.next_u64() == 0x6E789E6AA1B965F4
    assert rs.next_u64() == 0x06C45D188009454F
    assert rs.next_u64() == 0xF88BB8A8724C81EC


def test_stream_known_floats():
    assert [RandomStream(0).next_float() for _ in range(1)] == [0.8833108082136426]
    rs = RandomStream(0)
    assert [rs.next_float() for _ in range(3)] == [
        0.8833108082136426, 0.43152799704850997, 0.026433771592597743]
    rs = RandomStream(1)
    assert [rs.next_float() for _ in range(3)] == [
        0.5665615751722809, 0.7457817572627011, 0.9710027535867962]
    rs = RandomStream(42)
    assert [rs.next_float() for _ in range(3)] == [
        0.7415648787718233, 0.1599103928769201, 0.27860113025513866]


def test_mix64_matches_single_stream_step():
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(123456789) == RandomStream(123456789).next_u64()


def test_derive_seed_known_value():
    s = derive_seed(1, 0)
    assert s == 0x910A2DEC89025CC1
    assert RandomStream(s).next_float() == 0.36818951565166946


def test_seed_wraps_to_64_bits():
    assert RandomStream(1 << 64).next_u64() == RandomStream(0).next_u64()
    assert derive_seed(1 << 64, 0) == derive_seed(0, 0)


def test_bulk_uniforms_known_values():
    assert bulk_uniforms(1, 3)[1] == 0.6524484863740322
    assert bulk_uniforms(42, 8)[7] == 0.019101220177022094


def test_bulk_uniforms_matches_per_index_streams():
    seed = 987654321
    got = bulk_uniforms(seed, 40)
    want = [RandomStream(derive_seed(seed, j)).next_float() for j in range(40)]
    assert got.tolist() == want


def test_bulk_uniforms_shape_dtype_range():
    u = bulk_uniforms(7, 1000)
    assert u.shape == (1000,)
    assert u.dtype == np.float64
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0
    assert bulk_uniforms(7, 0).shape == (0,)


def test_bulk_uniforms_rejects_negative_count():
    with pytest.raises(ValueError):
        bulk_uniforms(0, -1)


def test_bulk_uniforms_prefix_stable():
    # element j depends only on (seed, j), not on the requested count
    assert bulk_uniforms(5, 10).tolist() == bulk_uniforms(5, 100)[:10].tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_bulk_equals_stream_for_any_seed(seed):
    got = bulk_uniforms(seed, 5)
    want = [RandomStream(derive_seed(seed, j)).next_float() for j in range(5)]
    assert got.tolist() == want


def _edge_probabilities(u):
    """0, 1, 2^-53 and, for a few drawn uniforms k*2^-53, the value itself
    and its float neighbours: u < p flips exactly there."""
    ps = [0.0, 1.0, 2.0 ** -53, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
    for k in {0, len(u) // 2, len(u) - 1}:
        ps += [u[k], np.nextafter(u[k], np.inf), np.nextafter(u[k], -np.inf)]
    return ps


def _block_counts(u, count, ps):
    """Hits of block i, u[i*count:(i+1)*count] < ps[i], for every block."""
    return tuple(int(np.count_nonzero(u[i * count:(i + 1) * count] < p))
                 for i, p in enumerate(ps))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=300),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3))
def test_bernoulli_counts_equal_uniforms_below_p(seed, count, ps):
    u = bulk_uniforms(seed, len(ps) * count)
    for qs in [ps, *([float(q)] * len(ps) for q in _edge_probabilities(u))]:
        got = bernoulli_counts(seed, count, qs)
        assert all(type(hits) is int for hits in got)
        assert got == _block_counts(u, count, qs), qs


def test_bernoulli_counts_edges():
    u = bulk_uniforms(11, 3000)
    assert bernoulli_counts(11, 1000, (0.0, 1.0, 0.0)) == (0, 1000, 0)
    assert bernoulli_counts(11, 1000, (-0.5, 1.5)) == (0, 1000)
    assert bernoulli_counts(11, 0, (0.5, 0.5)) == (0, 0)
    assert bernoulli_counts(11, 1000, ()) == ()
    for k in (1, 2, 3, 1 << 20, (1 << 53) - 1):
        q = k * 2.0 ** -53
        qs = [q, float(np.nextafter(q, np.inf)), float(np.nextafter(q, -np.inf))]
        for shift in range(3):  # every block sees q and both its neighbours
            rotated = qs[shift:] + qs[:shift]
            assert bernoulli_counts(11, 1000, rotated) == _block_counts(u, 1000, rotated)
    with pytest.raises(ValueError):
        bernoulli_counts(0, -1, (0.5,))
    with pytest.raises(ValueError):
        bernoulli_counts(0, -1, ())
