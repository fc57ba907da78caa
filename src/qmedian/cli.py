"""Command-line surface.

Subcommands:
  gen       write a synthetic dataset with a target imbalance
  estimate  signed imbalance estimate at a threshold (JSON to stdout)
  median    binary-search median estimate (JSON to stdout)
  sweep     closed-form/simulator loop sweep (CSV to a file)
  check     numeric verification suite (report to stdout)
  baseline  classical Monte Carlo estimate (JSON to stdout)

Exit codes: 0 success, 1 usage/parameter error, 2 data or I/O error,
3 numerical failure (including a failed check).

Numbers are serialized with 17 significant digits, which round-trips
doubles exactly, so identical invocations produce byte-identical output.
The seed comes only from --seed (default 0); the environment plays no part.
``estimate`` derives its loop count from --eps0 and its repetition count
from --theta.  Files are written atomically (fresh temp file, fsync,
rename).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import tempfile
from typing import List, Optional

from .adaptive import median_search_counted
from .baseline import classical_estimate
from .checks import evolve, grid_oracle, run_checks
from .dataset import (
    dataset_to_text,
    make_oracle,
    rank_below,
    read_dataset,
    synth_dataset,
)
from .driver import MODES
from .errors import DataError, NumericalError, ParameterError, QmedianError
from .estimator import EstimateRecord, eps_est
from .model import k_closed_form, k_small_eps_approx, predicted_fraction
from .statevector import _check_bits


# ---------------------------------------------------------------- emission

def _fmt(x) -> str:
    """One JSON token: floats at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NumericalError(f"cannot serialize non-finite number {x!r}")
        return format(x, ".17g")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if x is None:
        return "null"
    raise TypeError(f"unsupported JSON value: {type(x)!r}")


def _json_line(d: dict) -> str:
    body = ", ".join(f'"{k}": {_fmt(v)}' for k, v in d.items())
    return "{" + body + "}\n"


def _record_dict(rec: EstimateRecord) -> dict:
    out = dataclasses.asdict(rec)
    if rec.sign is None:
        out["sign"] = "unknown"
    return out


def _atomic_write(path: str, text: str) -> None:
    """Fresh temp file beside ``path`` (umask-derived mode), fsync, rename;
    the temp file is removed on any failure."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                   suffix=".tmp", dir=os.path.dirname(path) or ".")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from None
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# ---------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map."""

    def error(self, message):
        raise ParameterError(message)


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_mode(p) -> None:
    p.add_argument(
        "--mode", choices=MODES, default="exact",
        help="exact readout or sampled measurement (default exact)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qmedian", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="register bits; 2^n values")
    p.add_argument("--eps", type=float, required=True, help="target imbalance")
    p.add_argument("--mu", type=float, default=0.0, help="threshold the imbalance refers to")
    p.add_argument("--out", required=True, help="output path")
    _add_seed(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("estimate", help="signed imbalance estimate at a threshold")
    p.add_argument("--data", required=True, help="dataset file, one value per line")
    p.add_argument("--mu", type=float, required=True, help="threshold")
    p.add_argument("--eps0", type=float, default=0.1, help="prior magnitude bound (default 0.1)")
    p.add_argument("--theta", type=float, default=0.1, help="relative precision target (default 0.1)")
    _add_mode(p)
    _add_seed(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("median", help="median estimate by threshold bisection")
    p.add_argument("--data", required=True)
    p.add_argument("--min", type=float, default=None, dest="vmin",
                   help="search bracket lower end (default: dataset min)")
    p.add_argument("--max", type=float, default=None, dest="vmax",
                   help="search bracket upper end (default: dataset max)")
    p.add_argument("--resolution", type=float, default=0.0,
                   help="bracket width to stop at (default 0: search until "
                        "the comparison cannot tell or the bracket's ends "
                        "are adjacent doubles)")
    p.add_argument("--eps-min", type=float, default=0.01, dest="eps_min",
                   help="last rung of the sampled sign ladder (default 0.01)")
    _add_mode(p)
    _add_seed(p)
    p.set_defaults(func=cmd_median)

    p = sub.add_parser("sweep", help="loop sweep of the closed-form amplitudes")
    p.add_argument("--eps", type=float, required=True, help="imbalance, in [-1, 1]")
    p.add_argument("--beta-max", type=int, required=True, dest="beta_max",
                   help="last loop count (rows r = 0..beta-max)")
    p.add_argument("--n", type=int, default=None,
                   help="also simulate a 2^n register (eps must sit on its grid)")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="numeric verification suite")
    p.add_argument("--n", type=int, default=8, help="register bits (default 8)")
    p.add_argument("--tol", type=float, default=1e-10, help="max error allowed (default 1e-10)")
    _add_seed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("baseline", help="classical Monte Carlo estimate")
    p.add_argument("--data", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--samples", type=int, required=True, help="number of draws")
    _add_seed(p)
    p.set_defaults(func=cmd_baseline)

    return parser


# ---------------------------------------------------------------- commands

def cmd_gen(ns) -> int:
    d, achieved = synth_dataset(ns.n, ns.eps, ns.mu, ns.seed)
    _atomic_write(ns.out, dataset_to_text(d))
    sys.stdout.write(f"achieved_eps={format(achieved, '.17g')}\n")
    return 0


def cmd_estimate(ns) -> int:
    d = read_dataset(ns.data)
    rec = eps_est(d, ns.mu, eps0=ns.eps0, theta=ns.theta, mode=ns.mode, seed=ns.seed)
    sys.stdout.write(_json_line(_record_dict(rec)))
    return 0


def cmd_median(ns) -> int:
    d = read_dataset(ns.data)
    vmin = float(d.values.min()) if ns.vmin is None else ns.vmin
    vmax = float(d.values.max()) if ns.vmax is None else ns.vmax
    mu_hat, steps, calls = median_search_counted(
        d, vmin, vmax, ns.resolution, ns.eps_min, mode=ns.mode, seed=ns.seed,
    )
    sys.stderr.write(
        "note: each bisection step asks whether more than half of the values "
        "lie below the midpoint, and the search stops where that cannot be "
        "told: exact mode at a split of exactly half, sampled mode at a "
        "midpoint whose |imbalance| the arm ladder leaves below 0.2*eps-min; "
        "values equal to a threshold count as above it.\n"
    )
    out = {
        "mu_hat": mu_hat,
        "rank_below": rank_below(d, mu_hat),
        "steps": steps,
        "calls": calls,
    }
    sys.stdout.write(_json_line(out))
    return 0


def cmd_sweep(ns) -> int:
    if ns.beta_max < 0:
        raise ParameterError(f"beta-max must be >= 0, got {ns.beta_max}")
    eps = ns.eps
    with_exact = ns.n is not None
    header = "r,k_re,k_im,k_abs,approx_2sqrt2,p_below_analytic"
    if with_exact:
        header += ",p_below_exact,abs_err"
        _check_bits(ns.n)
        b_real = (1.0 + eps) * (1 << ns.n) / 2.0
        n_below = round(b_real)
        if abs(b_real - n_below) > 1e-9:
            raise ParameterError(
                f"eps={eps} is not on the n={ns.n} grid (nearest below-count {n_below})"
            )
        passes = evolve(grid_oracle(ns.n, n_below), ns.beta_max)
    lines = [header + "\n"]

    def g(x: float) -> str:
        return format(x, ".17g")

    for r in range(ns.beta_max + 1):
        k = k_closed_form(eps, r)
        p_model = predicted_fraction(eps, r)
        row = [str(r), g(k.real), g(k.imag), g(abs(k)),
               g(k_small_eps_approx(abs(eps), r)), g(p_model)]
        if with_exact:
            p_exact = next(passes).p
            row += [g(p_exact), g(abs(p_exact - p_model))]
        lines.append(",".join(row) + "\n")
    _atomic_write(ns.csv, "".join(lines))
    return 0


def cmd_check(ns) -> int:
    results = run_checks(ns.n, ns.seed)
    failed = False
    for res in results:
        ok = res.max_err <= ns.tol
        failed = failed or not ok
        sys.stdout.write(
            f"{res.name:<24s} max_err={format(res.max_err, '.17g')} "
            f"tol={format(ns.tol, '.17g')} {'PASS' if ok else 'FAIL'}\n"
        )
    return 3 if failed else 0


def cmd_baseline(ns) -> int:
    d = read_dataset(ns.data)
    o = make_oracle(d, ns.mu)
    f_hat, eps_hat = classical_estimate(o, ns.samples, ns.seed)
    out = {
        "f_hat": f_hat,
        "eps_hat": eps_hat,
        "m": ns.samples,
        "stderr_model": 2.0 * math.sqrt(max(f_hat * (1.0 - f_hat), 0.0) / ns.samples),
    }
    sys.stdout.write(_json_line(out))
    return 0


# ---------------------------------------------------------------- entry

def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except ParameterError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (DataError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except NumericalError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except QmedianError as e:  # any remaining package error is a data problem
        sys.stderr.write(f"error: {e}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
