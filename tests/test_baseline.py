"""Classical Monte Carlo reference estimator."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qmedian
from qmedian import baseline
from qmedian.rng import SALT_BASELINE, bulk_uniforms, derive_seed

from qmedian import (
    ParameterError,
    classical_estimate,
    dataset_from_values,
    make_oracle,
)


@pytest.fixture(scope="module")
def o1024():
    return make_oracle(dataset_from_values(np.arange(1024.0)), 575.5)


def test_all_below_gives_full_imbalance():
    o = make_oracle(dataset_from_values(np.arange(32.0)), 100.0)
    for seed in (0, 1, 99):
        f, e = classical_estimate(o, 10, seed)
        assert (f, e) == (1.0, 1.0)


def test_all_above_gives_negative_full_imbalance():
    o = make_oracle(dataset_from_values(np.arange(32.0)), -1.0)
    f, e = classical_estimate(o, 10, 0)
    assert (f, e) == (0.0, -1.0)


def test_known_draw(o1024):
    f, e = classical_estimate(o1024, 1000, 0)
    assert f == 0.557
    assert e == pytest.approx(0.114, abs=1e-12)
    assert e == 2 * f - 1


def test_deterministic_and_seed_sensitive(o1024):
    assert classical_estimate(o1024, 500, 3) == classical_estimate(o1024, 500, 3)
    assert classical_estimate(o1024, 500, 3) != classical_estimate(o1024, 500, 4)


def test_balanced_dataset_stays_in_band():
    o = make_oracle(dataset_from_values(np.arange(1024.0)), 512.0)
    assert o.eps == 0.0
    _, e = classical_estimate(o, 100, 5)
    assert abs(e) <= 1.0
    assert abs(e) <= 2 * 5.0 / 10.0  # kappa=5 band at m=100


def test_estimate_concentrates(o1024):
    _, e = classical_estimate(o1024, 100000, 7)
    assert abs(e - o1024.eps) < 0.01


def test_sample_count_validation(o1024):
    with pytest.raises(ParameterError):
        classical_estimate(o1024, 0, 0)
    with pytest.raises(ParameterError):
        classical_estimate(o1024, -5, 0)


def test_blocked_draws_match_one_shot_reference(o1024):
    b = baseline._BLOCK
    for m in (1, b - 1, b, b + 1, 3 * b + 777):
        for seed in (0, 12345):
            u = bulk_uniforms(derive_seed(seed, SALT_BASELINE), m)
            idx = np.minimum((u * o1024.size).astype(np.int64), o1024.size - 1)
            f = int(o1024.below_mask[idx].sum()) / m
            assert classical_estimate(o1024, m, seed) == (f, 2.0 * f - 1.0)


def test_large_sign_probe_fits_in_two_gib():
    # at eps0 0.003 a classical sign probe at resolution 0.2*eps0 would be
    # 10^8 draws; the arm ladder signs this estimate instead, and the whole
    # estimate must still run under a 2 GiB address-space limit
    src = Path(qmedian.__file__).resolve().parent.parent
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        sys.path.insert(0, {str(src)!r})
        import numpy as np
        from qmedian import dataset_from_values, eps_est
        rec = eps_est(dataset_from_values(np.arange(1024.0)), 460.85,
                      eps0=0.003, theta=0.03, mode="sampled", seed=0)
        print(rec.verdict)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
