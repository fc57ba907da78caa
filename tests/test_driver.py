"""End-to-end experiment driver: preparation, amplification, readout."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qmedian
from qmedian import (
    ParameterError,
    RandomStream,
    RunPlan,
    amplification_loop,
    bulk_uniforms,
    choose_alpha,
    choose_beta,
    dataset_from_values,
    derive_seed,
    make_oracle,
    predicted_fraction,
    prepare,
    run_experiment,
)
from qmedian import driver
from qmedian.checks import evolve, grid_oracle
from qmedian.rng import SALT_SAMPLES
from qmedian.statevector import sample, sample_many


def reference_oracles():
    """Head oracles over n in {1, 2, 4, 8, 10, 12}: below-counts
    {0, 1, N/2, N-1, N} plus a stride over |eps| <= 0.25."""
    for n in (1, 2, 4, 8, 10, 12):
        size = 1 << n
        lo, hi = math.ceil(size * 0.375), math.floor(size * 0.625)
        counts = {0, 1, size // 2, size - 1, size}
        counts.update(range(lo, hi + 1, max(1, (hi - lo) // 8)))
        for n_below in sorted(counts):
            yield grid_oracle(n, n_below)


# --------------------------------------------------------- parameter choice

def test_choose_beta_table():
    assert choose_beta(0.1) == 1
    assert choose_beta(0.05) == 1
    assert choose_beta(0.025) == 2
    assert choose_beta(0.0125) == 4
    assert choose_beta(0.01) == 5
    assert choose_beta(0.004) == 12
    assert choose_beta(0.003) == 16


# test_estimator.test_monotone_on_bracket verifies both branches
# m -> f(+-m, beta) strictly increasing on [0, MONOTONE_CAP/beta] for every
# beta up to 200.
MONOTONE_CAP = 0.45


def test_choose_beta_keeps_loop_angle_invertible():
    for eps0 in (0.1, 0.07, 0.03, 0.011, 0.005, 0.0003):
        assert choose_beta(eps0) * eps0 <= 0.1 + 1e-12
        assert choose_beta(eps0) >= 1
    # eps_est fits on [0, eps0] with no bracket check of its own: every eps0
    # it accepts must lie inside the monotone bracket of its own loop count,
    # including where beta steps (eps0 = 0.05, 0.025)
    grid = np.concatenate([np.geomspace(1e-5, 0.1, 20001), [0.05, 0.025]])
    for eps0 in map(float, grid):
        assert eps0 <= MONOTONE_CAP / choose_beta(eps0), eps0


def test_choose_beta_bounds():
    for bad in (0.0, -0.1, 0.11, 1.0):
        with pytest.raises(ParameterError):
            choose_beta(bad)


def test_choose_alpha_table():
    assert choose_alpha(1.0) == 1
    assert choose_alpha(0.1) == 100
    assert choose_alpha(0.05) == 400
    assert choose_alpha(0.03) == 1112
    assert choose_alpha(0.01) == 10000


def test_choose_alpha_bounds():
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ParameterError):
            choose_alpha(bad)


def test_run_plan_validation():
    good = dict(alpha=100, beta=1, mode="exact", seed=0)
    RunPlan(**good)
    for field, bad in [("alpha", 0), ("beta", 0), ("mode", "weird")]:
        with pytest.raises(ParameterError):
            RunPlan(**{**good, field: bad})


# --------------------------------------------------------- preparation

def test_prepare_amplitudes_small_register():
    o = grid_oracle(5, 18)  # eps = (36 - 32)/32 = 0.125
    assert o.eps == 0.125
    state = prepare(o)
    below = state.amps[o.below_mask]
    above = state.amps[o.above_mask]
    assert np.max(np.abs(below - 0.022097086912079608)) < 1e-13
    assert np.max(np.abs(above - complex(0.1988737822087165,
                                         0.17677669529663687))) < 1e-13
    assert abs(state.norm_sq() - 1.0) < 1e-13


def test_prepare_matches_model_across_grid():
    for n_below in (96, 128, 129, 160):
        for o in (grid_oracle(8, n_below), grid_oracle(8, n_below, seed=n_below)):
            for p in evolve(o, 0):
                assert p.amp_err < 1e-13


def test_amplification_loop_zero_passes_is_identity():
    o = grid_oracle(4, 10)
    state = prepare(o)
    before = state.amps.copy()
    amplification_loop(state, o, 0)
    assert np.all(state.amps == before)
    with pytest.raises(ParameterError):
        amplification_loop(state, o, -1)


# --------------------------------------------------------- experiments

def test_exact_experiment_reads_model_fraction():
    o = grid_oracle(10, 576)
    plan = RunPlan(100, 1, "exact", 0)
    res = run_experiment(o, plan)
    assert res.f_hat == res.exact_p
    # no draw: the seed changes nothing
    assert run_experiment(o, RunPlan(100, 1, "exact", 9)) == res
    assert abs(res.f_hat - predicted_fraction(0.125, 1)) < 1e-12
    assert res.exact_p == pytest.approx(26937 / 262144, abs=1e-13)


def test_sampled_experiment_known_counts():
    o = grid_oracle(10, 576)
    plan = RunPlan(100, 1, "sampled", 0)
    res = run_experiment(o, plan)
    assert res.f_hat == 0.09
    assert res.exact_p == pytest.approx(26937 / 262144, abs=1e-13)
    # 9 hits among the plan's 100 draws from the sample sub-stream
    hits = bulk_uniforms(derive_seed(plan.seed, SALT_SAMPLES), plan.alpha) < res.exact_p
    assert hits.shape == (100,)
    assert int(hits.sum()) == 9 == res.f_hat * plan.alpha


def test_sampled_experiment_deterministic_and_seed_sensitive():
    o = grid_oracle(8, 144)
    plan = RunPlan(500, 1, "sampled", 7)
    a = run_experiment(o, plan)
    b = run_experiment(o, plan)
    assert a == b
    c = run_experiment(o, RunPlan(500, 1, "sampled", 8))
    assert c.exact_p == a.exact_p
    assert c.f_hat != a.f_hat


def test_resampling_every_draw_changes_nothing():
    # on a prefix partition the below states lead the CDF, so index sampling
    # from the evolved reference lands below exactly when u < exact_p: both
    # re-preparing the register per draw and bulk index sampling from one
    # evolved state equal the Bernoulli readout, draw for draw
    o = grid_oracle(6, 36)
    plan = RunPlan(64, 2, "sampled", 11)
    draw_seed = derive_seed(plan.seed, SALT_SAMPLES)
    slow = [
        bool(o.below_mask[sample(amplification_loop(prepare(o), o, plan.beta),
                                 RandomStream(derive_seed(draw_seed, j)))])
        for j in range(plan.alpha)
    ]
    res = run_experiment(o, plan)
    assert (bulk_uniforms(draw_seed, plan.alpha) < res.exact_p).tolist() == slow
    assert res.f_hat == sum(slow) / plan.alpha

    for o in reference_oracles():
        for p in evolve(o, 20):
            if p.r in (1, 5, 20):
                plan = RunPlan(256, p.r, "sampled", p.r)
                uniforms = bulk_uniforms(derive_seed(plan.seed, SALT_SAMPLES), plan.alpha)
                want = o.below_mask[sample_many(p.state, uniforms)]
                res = run_experiment(o, plan)
                assert (uniforms < res.exact_p).tolist() == want.tolist()
                assert res.f_hat == np.count_nonzero(want) / plan.alpha


def test_sampled_outcomes_ignore_partition_order():
    # a draw lands below with probability exact_p whichever states are below,
    # so permuting the mask leaves every outcome unchanged
    n, n_below = 10, 576
    head = grid_oracle(n, n_below)
    shuffled = grid_oracle(n, n_below, seed=5)
    assert not np.array_equal(shuffled.below_mask, head.below_mask)
    for beta in (1, 3, 7):
        plan = RunPlan(500, beta, "sampled", 2)
        want = run_experiment(head, plan)
        got = run_experiment(shuffled, plan)
        uniforms = bulk_uniforms(derive_seed(plan.seed, SALT_SAMPLES), plan.alpha)
        assert got == want
        assert got.f_hat == np.count_nonzero(uniforms < got.exact_p) / plan.alpha


def test_run_experiment_runs_no_register_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_experiment evolved the 2^n register")

    for name in ("uniform_state", "conditional_phase", "diffusion", "shift"):
        monkeypatch.setattr(driver, name, refuse)
    o = grid_oracle(10, 576)
    exact = run_experiment(o, RunPlan(100, 1, "exact", 0))
    assert exact.exact_p == pytest.approx(26937 / 262144, abs=1e-13)
    sampled = run_experiment(o, RunPlan(100, 1, "sampled", 0))
    assert sampled.f_hat == 0.09


def test_experiment_builds_no_register(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_experiment built or sampled the 2^n register")

    for name in ("StateVector", "probability_of", "sample_many", "sample"):
        monkeypatch.setattr(driver, name, refuse)
    o = grid_oracle(10, 576)
    exact = run_experiment(o, RunPlan(100, 1, "exact", 0))
    assert exact.exact_p == pytest.approx(26937 / 262144, abs=1e-13)
    sampled = run_experiment(o, RunPlan(100, 1, "sampled", 0))
    assert sampled.exact_p == exact.exact_p
    assert sampled.f_hat == 0.09


def test_experiment_exact_p_matches_evolved_reference():
    for o in reference_oracles():
        for p in evolve(o, 100):
            if p.r in (1, 5, 20, 36, 100):
                for mode in ("exact", "sampled"):
                    plan = RunPlan(8, p.r, mode, 0)
                    assert abs(run_experiment(o, plan).exact_p - p.p) < 1e-13


def test_model_built_register_matches_evolved_reference():
    # the register built from the model pair, k/sqrt(N) below and l/sqrt(N)
    # above, equals the evolved one entrywise on every pass
    for o in reference_oracles():
        root_n = math.sqrt(o.size)
        for p in evolve(o, 100):
            assert p.amp_err * root_n < 1e-11
            assert p.p_err < 1e-13


def test_sampled_estimate_at_max_bits_fits_in_768_mib():
    # the 2^24 values take 128 MiB; a 2^24 complex register (256 MiB) and its
    # float64 CDF (128 MiB) would not fit beside them
    src = Path(qmedian.__file__).resolve().parent.parent
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))
        sys.path.insert(0, {str(src)!r})
        import numpy as np
        from qmedian import dataset_from_values, eps_est
        rec = eps_est(dataset_from_values(np.arange(float(1 << 24))),
                      2.0**23 + 2.0**19 + 0.5, mode="sampled", seed=0)
        print(rec.verdict, rec.sign)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok 1"


def test_sampled_fraction_concentrates_near_exact():
    o = grid_oracle(10, 576)
    plan = RunPlan(10000, 1, "sampled", 3)
    res = run_experiment(o, plan)
    assert abs(res.f_hat - res.exact_p) <= 5.0 * math.sqrt(1.0 / 10000)


def test_run_experiment_with_real_dataset_oracle():
    d = dataset_from_values(np.arange(1024.0))
    o = make_oracle(d, 575.5)
    plan = RunPlan(100, 1, "exact", 0)
    assert run_experiment(o, plan).exact_p == pytest.approx(
        26937 / 262144, abs=1e-13)
