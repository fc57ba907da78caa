"""Command-line interface: output formats, schemas, seeds, exit codes."""

import importlib.resources
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qmedian
from qmedian import dataset_to_text, dataset_from_values, load_dataset
from qmedian.cli import main


def _schema(name):
    ref = importlib.resources.files("qmedian") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _write_data(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text(dataset_to_text(dataset_from_values(np.asarray(values, dtype=float))))
    return str(path)


@pytest.fixture()
def data32(tmp_path):
    return _write_data(tmp_path, np.arange(32.0))


@pytest.fixture()
def data1024(tmp_path):
    return _write_data(tmp_path, np.arange(1024.0))


# ---------------------------------------------------------------- estimate

def test_estimate_output_matches_schema(data32, capsys):
    assert main(["estimate", "--data", data32, "--mu", "17", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    rec = json.loads(out)
    jsonschema.validate(rec, _schema("estimate"))
    assert rec["sign"] == 1
    assert rec["verdict"] == "ok"
    assert rec["eps_hat"] == pytest.approx(0.0625, abs=1e-9)
    assert rec["mode"] == "exact"
    assert rec["n"] == 5


def test_estimate_field_order(data32, capsys):
    main(["estimate", "--data", data32, "--mu", "17"])
    out = capsys.readouterr().out
    keys = [part.split('":')[0].strip().strip('"')
            for part in out.strip()[1:-1].split(", \"")]
    assert keys == ["eps_hat", "sign", "ci_lo", "ci_hi", "f_hat", "exact_p",
                    "alpha", "beta", "theta", "kappa", "eps0", "mode", "seed",
                    "n", "verdict"]


def test_estimate_unknown_sign_serialized(data32, capsys):
    assert main(["estimate", "--data", data32, "--mu", "16"]) == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("estimate"))
    assert rec["sign"] == "unknown"
    assert rec["eps_hat"] == 0.0


def test_estimate_out_of_range_verdict(data32, capsys):
    assert main(["estimate", "--data", data32, "--mu", "24"]) == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("estimate"))
    assert rec["verdict"] == "eps_exceeds_eps0"
    assert rec["eps_hat"] == 0.1
    assert (rec["ci_lo"], rec["ci_hi"]) == (0.1, 1.0)


def test_removed_inputs_are_usage_errors(data1024, capsys):
    # alpha and beta follow from --theta and --eps0; "sampled" has one spelling
    base = ["estimate", "--data", data1024, "--mu", "543.5"]
    for extra in (["--alpha", "7"], ["--beta", "2"], ["--mode", "sample"]):
        assert main(base + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), extra


def test_seed_env_var_is_ignored(data1024, capsys, monkeypatch):
    # the seed comes only from --seed (default 0), never from the environment
    commands = [
        ["estimate", "--data", data1024, "--mu", "543.5", "--mode", "sampled"],
        ["median", "--data", data1024, "--resolution", "0.5", "--mode", "sampled"],
    ]
    for argv in commands:
        monkeypatch.delenv("QMEDIAN_SEED", raising=False)
        assert main(argv) == 0
        without = capsys.readouterr()
        monkeypatch.setenv("QMEDIAN_SEED", "99")
        assert main(argv) == 0
        assert capsys.readouterr() == without, argv[0]
    assert json.loads(without.out)["steps"] >= 1
    assert main(commands[0]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_estimate_missing_file(tmp_path, capsys):
    assert main(["estimate", "--data", str(tmp_path / "nope.txt"),
                 "--mu", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_data_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "f"
    path.write_bytes(b"\xff\xfe1.5\n")
    for argv in (["estimate", "--mu", "0"], ["median"], ["baseline", "--mu", "0", "--samples", "10"]):
        assert main([*argv, "--data", str(path)]) == 2, argv
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
    # as a program: exit 2 and one error line, no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmedian.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qmedian.cli", "estimate", "--data", str(path), "--mu", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: not UTF-8 text\n")


def test_confidence_multiplier_is_not_an_option(data32, capsys):
    # the confidence is fixed (estimator.KAPPA); a --kappa flag is a usage error
    for argv in (["estimate", "--mu", "17"], ["median"]):
        assert main([*argv, "--data", data32, "--kappa", "3"]) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: unrecognized arguments: --kappa 3\n"), argv


def test_estimate_bad_eps0(data32, capsys):
    assert main(["estimate", "--data", data32, "--mu", "17",
                 "--eps0", "0.5"]) == 1


# ---------------------------------------------------------------- median

def test_median_output_and_note(data32, capsys):
    assert main(["median", "--data", data32, "--resolution", "1",
                 "--eps-min", "0.02"]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    jsonschema.validate(rec, _schema("median"))
    assert "more than half of the values lie below the midpoint" in captured.err
    # the first midpoint splits the values exactly in half and ends the search
    assert (rec["mu_hat"], rec["steps"], rec["rank_below"]) == (15.5, 1, 16)


def test_median_default_bracket_is_data_range(data32, capsys):
    assert main(["median", "--data", data32, "--resolution", "8"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert 0.0 < rec["mu_hat"] < 31.0


def test_median_bad_bracket(data32, capsys):
    # the search reports a bad bracket before the note on how it decides
    assert main(["median", "--data", data32, "--min", "5", "--max", "1"]) == 1
    assert capsys.readouterr().err == "error: need min <= max, got 5.0 > 1.0\n"
    assert main(["median", "--data", data32, "--min", "9", "--max", "2"]) == 1
    err = capsys.readouterr().err
    assert "need min <= max" in err
    assert "note:" not in err


def test_median_constant_data(tmp_path, capsys):
    # the default bracket is the one point 7.0: it is the median, and no
    # comparison is made
    path = _write_data(tmp_path, np.full(64, 7.0))
    for mode in ("exact", "sampled"):
        assert main(["median", "--data", path, "--mode", mode]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["mu_hat"], rec["steps"], rec["calls"]) == (7.0, 0, 0), mode


@pytest.mark.parametrize("kind", ["outlier", "lognormal", "cauchy"])
def test_median_default_resolution_keeps_the_rank_bound(tmp_path, capsys, kind):
    # with no --resolution the search stops on ranks, not on a value scale,
    # so skewed data lands as close to the median as uniform data
    size = 2**14
    rng = np.random.default_rng([31, size])
    if kind == "outlier":
        vals = rng.random(size) * 1000.0
        vals[0] = 1e12
    elif kind == "lognormal":
        vals = rng.lognormal(0.0, 4.0, size)
    else:
        vals = rng.standard_cauchy(size)
    path = _write_data(tmp_path, vals)
    for mode in ("exact", "sampled"):
        assert main(["median", "--data", path, "--mode", mode]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["rank_below"] - size // 2) <= 0.01 * size + 2, (kind, mode)


def test_median_bad_resolution(data32, capsys):
    assert main(["median", "--data", data32, "--resolution", "-1"]) == 1
    assert capsys.readouterr().err == "error: resolution must be >= 0, got -1.0\n"
    assert main(["median", "--data", data32, "--eps-min", "0.1"]) == 1
    assert capsys.readouterr().err == "error: eps_min must be in (0, 0.1), got 0.1\n"


# ---------------------------------------------------------------- gen

def test_gen_round_trip(tmp_path, capsys):
    out = str(tmp_path / "synth.txt")
    assert main(["gen", "--n", "6", "--eps", "0.125", "--mu", "0.5",
                 "--out", out, "--seed", "3"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("achieved_eps=")
    achieved = float(line.split("=", 1)[1])
    assert achieved == 0.125
    d = load_dataset(Path(out).read_text(encoding="utf-8"))
    assert d.size == 64
    assert int((d.values < 0.5).sum()) == 36  # (1+eps)*64/2


def test_gen_off_grid_rounds(tmp_path, capsys):
    out = str(tmp_path / "synth.txt")
    assert main(["gen", "--n", "4", "--eps", "0.1", "--out", out]) == 0
    achieved = float(capsys.readouterr().out.split("=", 1)[1])
    assert achieved == 0.125


def test_gen_deterministic(tmp_path, capsys):
    a_path, b_path = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    main(["gen", "--n", "5", "--eps", "0", "--out", a_path, "--seed", "1"])
    main(["gen", "--n", "5", "--eps", "0", "--out", b_path, "--seed", "1"])
    capsys.readouterr()
    assert Path(a_path).read_text() == Path(b_path).read_text()


def test_gen_bad_params(tmp_path):
    out = str(tmp_path / "x.txt")
    assert main(["gen", "--n", "0", "--eps", "0", "--out", out]) == 1
    assert main(["gen", "--n", "4", "--eps", "2", "--out", out]) == 1


def test_gen_unwritable_path(capsys):
    assert main(["gen", "--n", "4", "--eps", "0",
                 "--out", "/nonexistent-dir/sub/x.txt"]) == 2


def test_gen_write_leaves_no_temp_and_spares_neighbours(tmp_path, capsys):
    out = tmp_path / "data.txt"
    neighbour = tmp_path / "data.txt.tmp"
    neighbour.write_text("keep me\n")
    assert main(["gen", "--n", "4", "--eps", "0", "--out", str(out)]) == 0
    assert neighbour.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "data.txt.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    # a failed rename (the target is a directory) removes its temp file
    (tmp_path / "dir").mkdir()
    assert main(["gen", "--n", "4", "--eps", "0", "--out", str(tmp_path / "dir")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "data.txt.tmp", "dir"]


# ---------------------------------------------------------------- sweep

def test_sweep_exact_columns(tmp_path):
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--eps", "0.125", "--beta-max", "20", "--n", "10",
                 "--csv", csv]) == 0
    lines = Path(csv).read_text().splitlines()
    assert lines[0] == ("r,k_re,k_im,k_abs,approx_2sqrt2,p_below_analytic,"
                        "p_below_exact,abs_err")
    assert len(lines) == 22
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.125  # k_0 = eps
    for row in lines[1:]:
        assert float(row.split(",")[-1]) < 1e-10


def test_sweep_analytic_only(tmp_path):
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--eps", "0.3", "--beta-max", "5", "--csv", csv]) == 0
    lines = Path(csv).read_text().splitlines()
    assert lines[0] == "r,k_re,k_im,k_abs,approx_2sqrt2,p_below_analytic"
    assert len(lines) == 7


def test_sweep_off_grid_eps_rejected(tmp_path):
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--eps", "0.1", "--beta-max", "3", "--n", "4",
                 "--csv", csv]) == 1


def test_sweep_bit_count_checked_first(tmp_path, capsys):
    for n in ("-1", "0", "25"):
        assert main(["sweep", "--eps", "0", "--beta-max", "2", "--n", n,
                     "--csv", str(tmp_path / "x.csv")]) == 1
        assert "bit count must be in [1, 24]" in capsys.readouterr().err


def test_sweep_negative_beta_max(tmp_path):
    assert main(["sweep", "--eps", "0.1", "--beta-max", "-1",
                 "--csv", str(tmp_path / "x.csv")]) == 1


# ---------------------------------------------------------------- check

def test_check_reports_and_passes(capsys):
    assert main(["check", "--n", "4", "--tol", "1e-10", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("unitarity")
    for line in lines:
        assert "max_err=" in line and "tol=" in line
        assert line.endswith("PASS")


def test_check_impossible_tolerance(capsys):
    assert main(["check", "--n", "4", "--tol", "0", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_register_too_wide():
    assert main(["check", "--n", "30"]) == 1


# ---------------------------------------------------------------- baseline

def test_baseline_record(data1024, capsys):
    assert main(["baseline", "--data", data1024, "--mu", "575.5",
                 "--samples", "1000", "--seed", "0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("baseline"))
    assert rec["f_hat"] == 0.557
    assert rec["eps_hat"] == pytest.approx(0.114, abs=1e-12)
    assert rec["m"] == 1000
    expect = 2.0 * (0.557 * 0.443 / 1000) ** 0.5
    assert rec["stderr_model"] == pytest.approx(expect, rel=1e-12)


def test_baseline_zero_samples(data32):
    assert main(["baseline", "--data", data32, "--mu", "1",
                 "--samples", "0"]) == 1


# ---------------------------------------------------------------- parsing

def test_no_subcommand():
    assert main([]) == 1


def test_unknown_flag(data32):
    assert main(["estimate", "--data", data32, "--mu", "1", "--bogus"]) == 1


def test_serialization_is_pure_ascii_json(data32, capsys):
    main(["estimate", "--data", data32, "--mu", "17"])
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out == out.encode("ascii").decode("ascii")
    json.loads(out)
