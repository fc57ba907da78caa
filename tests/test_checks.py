"""Built-in verification suite."""

import importlib

import pytest

from qmedian import CheckResult, ParameterError, run_checks

EXPECTED_ORDER = [
    "unitarity",
    "factorization_diffusion",
    "factorization_shift",
    "preparation",
    "conservation",
    "closed_form",
]


def test_runs_clean_on_small_register():
    results = run_checks(4, seed=1)
    assert [r.name for r in results] == EXPECTED_ORDER
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.max_err < 1e-10


def test_result_fields():
    r = run_checks(2, seed=0)[0]
    assert r.name == "unitarity"
    assert isinstance(r.max_err, float)
    assert r.max_err >= 0.0


def test_deterministic():
    a = run_checks(3, seed=9)
    b = run_checks(3, seed=9)
    assert [(r.name, r.max_err) for r in a] == [(r.name, r.max_err) for r in b]


def test_register_size_validation():
    with pytest.raises(ParameterError):
        run_checks(0, seed=1)
    with pytest.raises(ParameterError):
        run_checks(25, seed=1)


@pytest.mark.parametrize("module, name, flagged", [
    ("qmedian.driver", "diffusion", ("conservation", "closed_form")),
    ("qmedian.driver", "shift", ("preparation",)),
    ("qmedian.checks", "walsh_hadamard", ("unitarity",)),
])
def test_planted_fault_is_reported(monkeypatch, module, name, flagged):
    # one reference serves check and the acceptance tests, so a bug that
    # hid errors would silence both: a transform perturbed by about 1e-9
    # must show in the check that covers it
    exact = getattr(importlib.import_module(module), name)

    def perturbed(state):
        exact(state)
        state.amps[0] += 1e-9
        return state

    monkeypatch.setattr(f"{module}.{name}", perturbed)
    errors = {r.name: r.max_err for r in run_checks(6, seed=1)}
    for check in flagged:
        assert errors[check] > 1e-10, check
