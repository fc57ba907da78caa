"""Numbered acceptance criteria for the whole toolkit, one test per
criterion.  The ``pytest -v`` line for each test is the pass/fail verdict
for that criterion; tolerances and runtime bounds are asserted inline.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import qmedian
from qmedian import (
    RunPlan,
    bulk_uniforms,
    classical_estimate,
    conditional_phase,
    dataset_from_values,
    derive_seed,
    diffusion,
    eps_est,
    k_closed_form,
    make_oracle,
    median_search_counted,
    predicted_fraction,
    rank_below,
    run_experiment,
    shift,
    walsh_hadamard,
)
from qmedian.checks import (
    check_factorization,
    evolve,
    grid_oracle,
    random_mask,
    random_state,
)
from qmedian.dense import dense_d, dense_r, dense_s, dense_t
from qmedian.model import TWO_SQRT2
from qmedian.rng import RandomStream


# --------------------------------------------------------------- A1 / A2

def test_a01_register_operations_preserve_norm():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 11):
        for trial in range(100):
            key = n * 1000 + trial
            st = random_state(n, derive_seed(17, key))
            mask = random_mask(n, derive_seed(23, key))
            angle = 2.0 * math.pi * RandomStream(derive_seed(29, key)).next_float()
            ops = (
                walsh_hadamard,
                lambda s: conditional_phase(s, mask, angle),
                diffusion,
                shift,
            )
            for op in ops:
                before = st.norm_sq()
                op(st)
                worst = max(worst, abs(st.norm_sq() - before))
    assert worst < 1e-12
    assert time.monotonic() - start < 10.0


def test_a02_conjugation_factorizations_match_dense_operators():
    start = time.monotonic()
    assert check_factorization(5, dense_t, dense_d) < 1e-12
    assert check_factorization(5, dense_r, dense_s) < 1e-12
    assert time.monotonic() - start < 5.0


# --------------------------------------------------------------- A3 / A5

def grid_passes(loops):
    """Every pass r <= loops over every grid imbalance with |eps| <= 0.25
    for n = 4..12 (head partitions)."""
    for n in range(4, 13):
        size = 1 << n
        for b in range(3 * size // 8, 5 * size // 8 + 1):
            yield from evolve(grid_oracle(n, b), loops)


def test_a03_preparation_amplitudes_and_flatness():
    assert max(p.amp_err for p in grid_passes(0)) < 1e-12


def test_a04_simulated_loop_tracks_closed_form_for_hundred_passes():
    o = grid_oracle(10, 576)
    assert o.eps == 0.125
    passes = list(evolve(o, 100))
    assert max(p.pair_err for p in passes) < 1e-10
    assert max(p.conserved_err for p in passes) < 1e-12
    assert max(p.norm_err for p in passes) < 1e-12


def test_a05_measured_fraction_matches_analytic_formula():
    assert max(p.p_err for p in grid_passes(20)) < 1e-12
    assert abs(predicted_fraction(0.125, 1) - 0.10275650024414063) < 1e-13


# -------------------------------------------------------------------- A6

def test_a06_amplitude_growth_follows_two_root_two_law():
    eps = 0.001
    for r in range(10, 51):
        ratio = abs(k_closed_form(eps, r)) / (TWO_SQRT2 * r * eps)
        assert 0.97 <= ratio <= 1.07


# -------------------------------------------------------------------- A7

def test_a07_exact_round_trip_on_every_grid_point():
    start = time.monotonic()
    n = 14
    size = 1 << n
    half = size // 2
    d = dataset_from_values(np.arange(float(size)))
    worst = 0.0
    for eps0 in (0.1, 0.05, 0.025):
        lo = math.ceil(0.1 * eps0 * half - 1e-9)
        hi = math.floor(eps0 * half + 1e-9)
        for excess in range(lo, hi + 1):
            for sign in (1, -1):
                b = half + sign * excess
                eps = (2 * b - size) / size
                rec = eps_est(d, b - 0.5, eps0=eps0, theta=0.1,
                              mode="exact", seed=0)
                assert rec.sign == sign, (eps0, eps)
                worst = max(worst, abs(abs(rec.eps_hat) - abs(eps)))
    assert worst <= 1e-6
    assert time.monotonic() - start < 60.0


# -------------------------------------------------------------------- A8

def test_a08_sampled_fraction_inside_band_for_twenty_seeds():
    o = grid_oracle(10, 576)
    bound = 5.0 * math.sqrt(1.0 / 10000)
    for seed in range(20):
        res = run_experiment(o, RunPlan(10000, 1, "sampled", seed))
        assert abs(res.f_hat - res.exact_p) <= bound, seed


# -------------------------------------------------------------------- A9

def test_a09_quadratic_advantage_in_required_effort():
    # amplified side: passes to reach |k| >= 0.5 double when eps halves
    def r_star(eps):
        r = 1
        while abs(k_closed_form(eps, r)) < 0.5:
            r += 1
        return r

    stars = {e: r_star(e) for e in (0.004, 0.002, 0.001, 0.0005)}
    for e in (0.004, 0.002, 0.001):
        ratio = stars[e / 2] / stars[e]
        assert 1.9 <= ratio <= 2.1, e

    # classical side: draws for a stderr of eps/2 grow ~4x when eps halves
    d = dataset_from_values(np.arange(1024.0))
    m_ref = 4096

    def m_required(mu):
        o = make_oracle(d, mu)
        ests = np.array(
            [classical_estimate(o, m_ref, s)[1] for s in range(100)])
        per_draw = ests.std() * math.sqrt(m_ref)
        return (per_draw / (abs(o.eps) / 2.0)) ** 2

    growth = m_required(521.5) / m_required(531.5)  # eps 0.0390625 -> half
    assert 3.5 <= growth <= 4.5


# ------------------------------------------------------------------- A10

def test_a10_median_bisection_rank_error_within_one_percent():
    start = time.monotonic()
    n = 14
    size = 1 << n
    vals = bulk_uniforms(7, size) * 1000.0
    assert np.unique(vals).size == size
    d = dataset_from_values(vals)
    vmin, vmax = float(vals.min()), float(vals.max())
    mu_hat = median_search_counted(d, vmin, vmax, (vmax - vmin) / 2.0 ** 20, 0.01,
                                   mode="exact", seed=0)[0]
    assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2
    assert time.monotonic() - start < 120.0


def test_a10_sampled_median_bisection_rank_error_within_one_percent():
    # the same search in sampled mode: its signs come from the amplified arms
    start = time.monotonic()
    n = 14
    size = 1 << n
    vals = bulk_uniforms(7, size) * 1000.0
    d = dataset_from_values(vals)
    vmin, vmax = float(vals.min()), float(vals.max())
    mu_hat = median_search_counted(d, vmin, vmax, (vmax - vmin) / 2.0 ** 20, 0.01,
                                   mode="sampled", seed=0)[0]
    assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2
    assert time.monotonic() - start < 120.0


# ------------------------------------------------------------------- A11

def test_a11_every_cli_command_byte_identical_on_rerun(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "QMEDIAN_SEED"}
    # The children run with cwd=tmp_path, where a relative PYTHONPATH entry
    # such as "src" no longer resolves; put the absolute directory holding
    # the qmedian this process imported first, so they run the same code.
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmedian.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    data = tmp_path / "data.txt"
    csv = tmp_path / "sweep.csv"

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "qmedian.cli", *args],
            capture_output=True, cwd=str(tmp_path), env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, proc.stderr

    def output_file(args):
        if args[0] == "gen":
            return data
        if args[0] == "sweep":
            return csv
        return None

    commands = [
        ["gen", "--n", "8", "--eps", "0.0625", "--mu", "100",
         "--out", str(data), "--seed", "9"],
        ["estimate", "--data", str(data), "--mu", "100",
         "--mode", "sampled", "--seed", "4"],
        ["median", "--data", str(data), "--resolution", "0.05",
         "--eps-min", "0.02", "--mode", "sampled", "--seed", "2"],
        ["sweep", "--eps", "0.0625", "--beta-max", "12", "--n", "8",
         "--csv", str(csv)],
        ["check", "--n", "3", "--seed", "1"],
        ["baseline", "--data", str(data), "--mu", "100",
         "--samples", "500", "--seed", "3"],
    ]
    for args in commands:
        first = run(args)
        path = output_file(args)
        file_first = path.read_bytes() if path else None
        second = run(args)
        file_second = path.read_bytes() if path else None
        assert first == second, args[0]
        assert file_first == file_second, args[0]
