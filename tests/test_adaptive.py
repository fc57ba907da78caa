"""The median search's comparison and its bisection."""

import numpy as np
import pytest

from qmedian import (
    ParameterError,
    adaptive,
    dataset_from_values,
    derive_seed,
    estimator,
    median_search_counted,
    rank_below,
    synth_dataset,
)


@pytest.fixture(scope="module")
def d1024():
    return dataset_from_values(np.arange(1024.0))


# --------------------------------------------------------------- comparison

def test_adaptive_validation(d1024):
    # checked up front, also on a bracket already below the resolution,
    # where no comparison runs
    for lo, hi in ((0.0, 1023.0), (10.0, 11.0)):
        for bad in (0.0, -0.1, 0.1, 0.5):
            with pytest.raises(ParameterError):
                median_search_counted(d1024, lo, hi, 2.0, eps_min=bad)
        for bad in ("sample", "classical"):
            with pytest.raises(ParameterError):
                median_search_counted(d1024, lo, hi, 2.0, 0.01, mode=bad)


def test_adaptive_sampled_cost_grows_as_one_over_eps(monkeypatch):
    # the paper's claim: amplified loop passes grow as 1/|eps|, not as the
    # 1/eps^2 draws of direct sampling.  A sampled comparison walks the arm
    # ladder down to eps_min and makes no classical draw, so the total (the
    # experiments' and the arms' loop passes) keeps the amplified slope,
    # about 0.7 here
    cost = {"passes": 0, "classical": 0}
    run, probe, arms = (estimator.run_experiment, estimator.classical_estimate,
                        estimator._arm_test)

    def counted_run(o, plan):
        cost["passes"] += plan.alpha * plan.beta
        return run(o, plan)

    def counted_probe(o, m, seed):
        cost["classical"] += m
        return probe(o, m, seed)

    def counted_arms(o, seed, scale):
        _, beta, alpha, _, _ = estimator._arm_design(o.size, scale)
        cost["passes"] += 2 * alpha * beta
        return arms(o, seed, scale)

    monkeypatch.setattr(estimator, "run_experiment", counted_run)
    monkeypatch.setattr(estimator, "classical_estimate", counted_probe)
    monkeypatch.setattr(estimator, "_arm_test", counted_arms)
    mags = (0.08, 0.04, 0.02, 0.01, 0.005)
    passes, total = [], []
    for mag in mags:
        cost["passes"] = 0
        for seed in range(10):
            sign = 1 if seed % 2 == 0 else -1
            d, _ = synth_dataset(14, sign * mag, 0.5, seed)
            below, _ = estimator.more_than_half_below(d, 0.5, 0.002, mode="sampled",
                                                      seed=seed)
            assert below in (None, sign == 1), (mag, seed)
        passes.append(cost["passes"])
        total.append(cost["passes"] + cost["classical"])
    x = np.log([1.0 / mag for mag in mags])
    assert cost["classical"] == 0  # over every magnitude
    assert np.polyfit(x, np.log(passes), 1)[0] <= 1.1
    assert np.polyfit(x, np.log(total), 1)[0] <= 1.1


def _kernel_draws(monkeypatch):
    """A one-element list that counts every arm draw the sign ladder makes,
    count*len(ps) per ``rng.bernoulli_counts`` call."""
    draws = [0]
    counts = estimator.bernoulli_counts

    def counted(seed, count, ps):
        draws[0] += count * len(ps)
        return counts(seed, count, ps)

    monkeypatch.setattr(estimator, "bernoulli_counts", counted)
    return draws


def test_sampled_search_arm_draws_halved(monkeypatch):
    # the arm test sized on its 2*alpha_s independent draws, each ranging
    # over 1/alpha_s, needs half the draws of one sized on alpha_s pair
    # differences in [-1, 1]: the latter drew 700,342.33 per search here
    draws = _kernel_draws(monkeypatch)
    size = 2**14
    for i in range(6):
        vals = np.random.default_rng([5, i]).random(size) * 1000.0
        assert np.unique(vals).size == size
        d = dataset_from_values(vals)
        mu_hat, _, _ = median_search_counted(d, 0.0, 1000.0, 1000.0 / 2**20, 0.01,
                                             mode="sampled", seed=i)
        assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2, i
    assert draws[0] > 0
    assert draws[0] / 6 <= 0.55 * 700342.33


def test_sampled_search_skips_rungs_the_bracket_ruled_out(monkeypatch):
    # the halved-draws searches again: a step that starts its ladder at the
    # rung its bracket's ends allow skips the top rung's draws, which a walk
    # from the top spent at every step (339,104.33 per search)
    draws = _kernel_draws(monkeypatch)
    size = 2**14
    for i in range(6):
        vals = np.random.default_rng([5, i]).random(size) * 1000.0
        d = dataset_from_values(vals)
        mu_hat, _, _ = median_search_counted(d, 0.0, 1000.0, 1000.0 / 2**20, 0.01,
                                             mode="sampled", seed=i)
        assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2, i
    assert draws[0] > 0
    assert draws[0] / 6 <= 0.8 * 339104.33


def test_sampled_search_arm_passes_sized_for_the_loop(monkeypatch):
    # the halved-draws searches again, counting the arms' loop passes, the
    # paper's cost: rungs below the top at floor(0.45/delta) passes, each
    # sized by Hoeffding, spent 1,485,031.67 passes and 246,803.67 draws per
    # search here
    cost = {"passes": 0, "draws": 0}
    arms = estimator._arm_test

    def counted_arms(o, seed, scale):
        _, beta, alpha, _, _ = estimator._arm_design(o.size, scale)
        cost["passes"] += 2 * alpha * beta
        cost["draws"] += 2 * alpha
        return arms(o, seed, scale)

    monkeypatch.setattr(estimator, "_arm_test", counted_arms)
    drawn = _kernel_draws(monkeypatch)
    size = 2**14
    for i in range(6):
        vals = np.random.default_rng([5, i]).random(size) * 1000.0
        d = dataset_from_values(vals)
        mu_hat, _, _ = median_search_counted(d, 0.0, 1000.0, 1000.0 / 2**20, 0.01,
                                             mode="sampled", seed=i)
        assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2, i
    assert cost["passes"] / 6 <= 0.5 * 1485031.67
    assert cost["draws"] / 6 <= 0.4 * 246803.67
    assert drawn[0] == cost["draws"]  # the kernel draws what the designs size


def _search_values(bits, kind, i):
    vals = np.random.default_rng([11, bits, i]).random(1 << bits) * 1000.0
    if kind == "low":
        vals[:16] = -1e6 + np.arange(16)
    return vals


def _recorded_search(monkeypatch, d, vmin, vmax, delta, eps_min, seed):
    """The sampled search, with each step's (mu, start rung, answer)."""
    calls = []
    compare = adaptive.more_than_half_below

    def recorded(d, mu, eps_min, mode, seed, start):
        got = compare(d, mu, eps_min, mode, seed, start)
        calls.append((mu, start, got[0]))
        return got

    with monkeypatch.context() as m:
        m.setattr(adaptive, "more_than_half_below", recorded)
        result = median_search_counted(d, vmin, vmax, delta, eps_min, mode="sampled",
                                       seed=seed)
    return result, calls


def _cold_search(d, vmin, vmax, delta, eps_min, seed):
    """Bisection whose every step walks the ladder from the top rung."""
    lower, upper = vmin, vmax
    mu, decisions = 0.5 * lower + 0.5 * upper, []
    while upper - lower > delta:
        mu = 0.5 * lower + 0.5 * upper
        if not lower < mu < upper:
            break
        below, _ = estimator.more_than_half_below(d, mu, eps_min, "sampled",
                                                  derive_seed(seed, len(decisions)))
        decisions.append((mu, below))
        if below is None:
            break
        if below:
            upper = mu
        else:
            lower = mu
    return mu, decisions


def test_warm_started_search_decides_like_a_cold_ladder(monkeypatch):
    # every step answers as a walk from the top rung would, so the search
    # returns what it returned before it skipped rungs; vmin and vmax bound
    # nothing about eps, so a step whose bracket still has either as an end
    # walks the whole ladder
    later_starts = []
    for bits in (12, 14, 16):
        for eps_min in (0.01, 0.003):
            for kind in ("uniform", "low"):
                for seed in range(2):
                    vals = _search_values(bits, kind, seed)
                    d = dataset_from_values(vals)
                    vmin, vmax = float(vals.min()), float(vals.max())
                    delta = (vmax - vmin) / 2**20
                    (mu_hat, steps, _), calls = _recorded_search(
                        monkeypatch, d, vmin, vmax, delta, eps_min, seed)
                    cold_mu, cold = _cold_search(d, vmin, vmax, delta, eps_min, seed)
                    where = (bits, eps_min, kind, seed)
                    assert [(mu, below) for mu, _, below in calls] == cold, where
                    assert (mu_hat, steps) == (cold_mu, len(cold)), where
                    size = 1 << bits
                    assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2, where
                    lower, upper = vmin, vmax
                    for mu, start, below in calls:
                        if lower == vmin or upper == vmax:
                            assert start == 0, (where, mu)
                        else:
                            later_starts.append(start)
                        if below:
                            upper = mu
                        else:
                            lower = mu
    assert max(later_starts) > 0


# --------------------------------------------------------------- bisection

def test_median_search_integer_values():
    d = dataset_from_values(np.arange(32.0))
    mu_hat, steps, calls = median_search_counted(d, 0.0, 31.0, 1.0, 0.01)
    assert (mu_hat, steps, calls) == (15.5, 1, 1)  # one comparison per step
    assert rank_below(d, mu_hat) == 16


def test_median_search_stops_at_a_balanced_first_probe():
    # at the first midpoint 15.5 the split is exactly even: the comparison
    # cannot tell, and 15.5 is a median, whatever the resolution
    d = dataset_from_values(np.arange(32.0))
    for delta in (0.0, 1e-300, 1.0, 8.0):
        assert median_search_counted(d, 0.0, 31.0, delta, 0.01) == (15.5, 1, 1), delta


def test_median_search_constant_dataset_converges_to_value():
    d = dataset_from_values(np.full(64, 7.0))
    for mode in ("exact", "sampled"):
        mu_hat = median_search_counted(d, 0.0, 20.0, 0.01, 0.01, mode=mode)[0]
        assert abs(mu_hat - 7.0) <= 0.01, mode


def test_median_search_near_the_largest_doubles():
    # the midpoint halves each end before adding them, so a bracket whose
    # ends sum past the largest double still shrinks
    vals = np.linspace(1.0e308, 1.7e308, 64)
    d = dataset_from_values(vals)
    for mode in ("exact", "sampled"):
        mu_hat = median_search_counted(d, 1.0e308, 1.7e308, 0.0, 0.01, mode=mode)[0]
        assert abs(rank_below(d, mu_hat) - 32) <= 0.01 * 64 + 2, mode


def test_median_search_rank_accuracy_random_data():
    vals = np.sort(np.abs(np.sin(np.arange(4096.0)))) * 100
    d = dataset_from_values(vals)
    span = float(vals.max() - vals.min())
    mu_hat = median_search_counted(d, float(vals.min()), float(vals.max()),
                                   span / 2**20, 0.01)[0]
    assert abs(rank_below(d, mu_hat) - 2048) <= 0.01 * 4096 + 2


def test_median_search_sampled_mode():
    d = dataset_from_values(np.arange(256.0))
    mu_hat, steps, calls = median_search_counted(
        d, 0.0, 255.0, 1.0, 0.02, mode="sampled", seed=5)
    # the first midpoint splits the values exactly in half: every rung stays
    # undecided and the search stops there
    assert (mu_hat, steps, calls) == (127.5, 1, 1)
    assert abs(rank_below(d, mu_hat) - 128) <= 4


def _plain_bisection(d, vmin, vmax, delta):
    """Bisection on the data's own count: more than half below moves the
    upper end, fewer the lower one, and exactly half stops it, as does a
    bracket no wider than delta or with adjacent ends."""
    lower, upper = vmin, vmax
    mu, steps = 0.5 * lower + 0.5 * upper, 0
    while upper - lower > delta:
        mu = 0.5 * lower + 0.5 * upper
        if not lower < mu < upper:
            break
        steps += 1
        excess = 2 * rank_below(d, mu) - d.size
        if excess == 0:
            break
        if excess > 0:
            upper = mu
        else:
            lower = mu
    return mu, steps


def test_exact_search_is_plain_bisection_on_the_count():
    sin = np.sort(np.abs(np.sin(np.arange(4096.0)))) * 100
    ties = np.random.default_rng([5, 16]).integers(0, 16, 1 << 12).astype(float)
    for vals in (np.arange(32.0), sin, ties, np.full(64, 7.0)):
        d = dataset_from_values(vals)
        vmin, vmax = float(vals.min()), float(vals.max())
        if vmin == vmax:
            vmin, vmax = 0.0, 20.0
        for delta in ((vmax - vmin) / 2**20, 0.0, 1e-300):
            mu_hat, steps, calls = median_search_counted(d, vmin, vmax, delta, 0.01,
                                                         mode="exact", seed=3)
            assert (mu_hat, steps) == _plain_bisection(d, vmin, vmax, delta), delta
            assert calls == steps


def test_sampled_search_stops_within_the_last_rungs_resolution():
    # the median-sampled benchmark's datasets: an undecided last rung means
    # |eps| < ACCEPT_FACTOR*eps_min at the returned midpoint, so it lies
    # within ACCEPT_FACTOR*eps_min*N/2 ranks of the median (+2 for the
    # final bracket)
    size, eps_min = 2**14, 0.01
    bound = estimator.ACCEPT_FACTOR * eps_min * size / 2 + 2
    for i in range(12):
        vals = np.random.default_rng([2, i]).random(size) * 1000.0
        assert np.unique(vals).size == size
        d = dataset_from_values(vals)
        vmin, vmax = float(vals.min()), float(vals.max())
        mu_hat, steps, calls = median_search_counted(
            d, vmin, vmax, (vmax - vmin) / 2**20, eps_min, mode="sampled", seed=i)
        assert steps == calls <= 20, i
        assert abs(rank_below(d, mu_hat) - size // 2) <= bound, i


def test_median_search_sampled_undecided_sign_keeps_rank_bound():
    # an undecided sign used to count as "more than half below" and sent
    # this search 288 ranks low
    size = 2**14
    vals = np.random.default_rng([2, 5]).random(size) * 1000
    d = dataset_from_values(vals)
    vmin, vmax = float(vals.min()), float(vals.max())
    mu_hat, _, _ = median_search_counted(
        d, vmin, vmax, (vmax - vmin) / 2**20, 0.01, mode="sampled", seed=5)
    assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2


def test_median_search_sampled_low_outliers_keep_rank_bound():
    # the first midpoints fall between the outliers and the rest, at
    # eps ~= -0.998, where the fraction aliases into the bracket and the fine
    # arms alone would read the sign as +1; the coarse arms read it right
    size = 2**14
    for outliers in (8, 16, 32):
        vals = np.random.default_rng([9, outliers]).random(size) * 1000
        vals[:outliers] = -1e6 + np.arange(outliers)
        d = dataset_from_values(vals)
        vmin, vmax = float(vals.min()), float(vals.max())
        for seed in range(2):
            mu_hat = median_search_counted(d, vmin, vmax, (vmax - vmin) / 2**20, 0.01,
                                           mode="sampled", seed=seed)[0]
            assert abs(rank_below(d, mu_hat) - size // 2) <= 0.01 * size + 2, (
                outliers, seed)


def test_median_search_zero_steps_returns_midpoint():
    d = dataset_from_values(np.arange(32.0))
    mu_hat, steps, calls = median_search_counted(d, 10.0, 11.0, 2.0, 0.01)
    assert (mu_hat, steps, calls) == (10.5, 0, 0)


def test_median_search_validation():
    d = dataset_from_values(np.arange(32.0))
    # a one-point bracket is its own answer, after no comparison
    assert median_search_counted(d, 5.0, 5.0, 0.0, 0.01) == (5.0, 0, 0)
    with pytest.raises(ParameterError):
        median_search_counted(d, 5.0, 1.0, 1.0, 0.01)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ParameterError):
            median_search_counted(d, 0.0, 31.0, bad, 0.01)


def test_median_search_deterministic():
    d = dataset_from_values(np.arange(256.0))
    a = median_search_counted(d, 0.0, 255.0, 0.5, 0.02, mode="sampled", seed=9)[0]
    b = median_search_counted(d, 0.0, 255.0, 0.5, 0.02, mode="sampled", seed=9)[0]
    assert a == b
