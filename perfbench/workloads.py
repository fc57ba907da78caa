"""The benchmark's workloads: their inputs, set-up, operations and checks.

Each workload is one fixed list of operations (a round) derived from the
workload seed.  A run repeats whole rounds, so every run measures the same
mix of operations and fails the same share of them.  Every check is made on
the benchmark's own copy of the data, never with the program's own counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import jsonschema
from qmedian import adaptive, cli, dataset

# CLI defaults of `qmedian median`: eps-min 0.01, resolution span/2^20.
EPS_MIN = 0.01
RESOLUTION_BITS = 20


class SetupError(Exception):
    """The program's set-up output failed the benchmark's check."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def distinct_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """size distinct uniforms on [0, 1000), the shape of the a10 data."""
    while True:
        v = rng.random(size) * 1000.0
        if np.unique(v).size == size:
            return v


def rank_bound_ok(values: np.ndarray, mu_hat: float) -> bool:
    """The documented median accuracy: |#below - N/2| <= 0.01*N + 2."""
    size = values.size
    below = int(np.count_nonzero(values < mu_hat))
    return abs(below - size / 2) <= 0.01 * size + 2


def imbalance(values: np.ndarray, mu: float) -> float:
    below = int(np.count_nonzero(values < mu))
    return (2 * below - values.size) / values.size


class MedianSearch:
    """``adaptive.median_search_counted`` on datasets loaded with
    ``dataset.read_dataset``; set-up is the loading."""

    def __init__(self, mode: str, specs: List[Tuple[np.ndarray, int]],
                 order: List[int]):
        self.mode = mode
        self.specs = specs
        self.order = order
        self.paths: List[str] = []
        self.loaded: List[dataset.Dataset] = []

    def prepare(self, workdir: str) -> None:
        """Writes the benchmark's datasets at 17 significant digits."""
        for i, (values, _) in enumerate(self.specs):
            path = os.path.join(workdir, f"median-{i}.txt")
            np.savetxt(path, values, fmt="%.17g")
            self.paths.append(path)

    def setup(self) -> None:
        self.loaded = [dataset.read_dataset(p) for p in self.paths]

    def check_setup(self) -> None:
        for d, (values, _) in zip(self.loaded, self.specs):
            if not np.array_equal(d.values, values):
                raise SetupError("read_dataset did not return the written values")

    def _search(self, i: int):
        d = self.loaded[i]
        values, seed = self.specs[i]
        vmin, vmax = float(values.min()), float(values.max())
        return adaptive.median_search_counted(
            d, vmin, vmax, (vmax - vmin) / 2.0 ** RESOLUTION_BITS, EPS_MIN,
            mode=self.mode, seed=seed)

    def operations(self) -> List[Op]:
        return [
            Op(f"median-{i}", lambda i=i: self._search(i),
               lambda out, i=i: rank_bound_ok(self.specs[i][0], out[0]))
            for i in self.order
        ]

    def explain(self, label: str) -> Dict[str, int]:
        """Re-runs a failed search and counts its bisection decisions that
        went the wrong way on an undecided sign (sign None, eps_hat > 0,
        read as "more than half below"), and the other wrong turns."""
        i = int(label.rsplit("-", 1)[1])
        values = self.specs[i][0]
        records = []
        inner = adaptive.eps_est

        def capture(*args, **kwargs):
            rec = inner(*args, **kwargs)
            records.append((args[1], rec))
            return rec

        adaptive.eps_est = capture
        try:
            self._search(i)
        finally:
            adaptive.eps_est = inner
        # the last estimate at each probed threshold is the one the step used
        decisions = [(mu, rec) for k, (mu, rec) in enumerate(records)
                     if k + 1 == len(records) or records[k + 1][0] != mu]
        undecided = other = 0
        for mu, rec in decisions:
            if (rec.eps_hat > 0.0) == (imbalance(values, mu) > 0.0):
                continue
            if rec.sign is None:
                undecided += 1
            else:
                other += 1
        return {"undecided_wrong_turns": undecided, "other_wrong_turns": other}


def median_exact(seed: int) -> MedianSearch:
    """Eight fresh 2^16-value datasets per workload seed."""
    rng = np.random.default_rng([1, seed])
    specs = [(distinct_values(rng, 1 << 16), int(rng.integers(1 << 62)))
             for _ in range(8)]
    return MedianSearch("exact", specs, list(range(len(specs))))


def median_sampled(seed: int) -> MedianSearch:
    """Twelve fixed 2^14-value datasets with search seeds 0..11.

    The undecided-sign fault fails a seed-dependent share of sampled
    searches, so the inputs do not depend on the workload seed: the failed
    share must be the same in every run.  The seed sets only their order.
    """
    specs = [(distinct_values(np.random.default_rng([2, i]), 1 << 14), i)
             for i in range(12)]
    order = np.random.default_rng([2, seed]).permutation(len(specs))
    return MedianSearch("sampled", specs, [int(i) for i in order])


def _cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _fmt(x: float) -> str:
    return format(x, ".17g")


class CliRoundTrip:
    """``qmedian.cli.main`` in process.  Set-up runs ``gen`` for every
    dataset file; an operation runs ``estimate`` exact and then
    ``estimate --mode sampled`` on one file, each reading the file."""

    BITS = 18
    # alpha = 10^4.  With the default theta 0.1 (alpha = 100), sampling noise
    # alone pushes a few percent of fractions past the bracket, and the record
    # then claims |eps| > eps0 with the interval (eps0, 1).
    THETA = "0.01"

    def __init__(self, seed: int):
        rng = np.random.default_rng([3, seed])
        self.specs = []
        for _ in range(4):
            mag = float(rng.uniform(0.01, 0.09))
            eps = mag if rng.random() < 0.5 else -mag
            self.specs.append({
                "eps": eps,
                "mu": float(rng.uniform(-1000.0, 1000.0)),
                "gen_seed": int(rng.integers(1 << 31)),
                "seed": int(rng.integers(1 << 31)),
            })
        self.paths: List[str] = []
        self.printed: List[str] = []
        self.first_printed: List[str] = []
        self.digests: List[str] = []
        self.values: List[np.ndarray] = []
        with open(os.path.join(os.path.dirname(cli.__file__), "schemas",
                               "estimate.schema.json"), encoding="utf-8") as fh:
            self.schema = json.load(fh)

    def prepare(self, workdir: str) -> None:
        self.paths = [os.path.join(workdir, f"gen-{i}.txt")
                      for i in range(len(self.specs))]

    def setup(self) -> None:
        self.printed = []
        for path, s in zip(self.paths, self.specs):
            rc, out = _cli(["gen", "--n", str(self.BITS), "--eps", _fmt(s["eps"]),
                            "--mu", _fmt(s["mu"]), "--out", path,
                            "--seed", str(s["gen_seed"])])
            if rc != 0:
                raise SetupError(f"gen exited {rc}")
            self.printed.append(out)

    def check_setup(self) -> None:
        """Parses the first pass's files; a later pass must repeat them
        byte for byte."""
        digests = []
        for path in self.paths:
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        if self.digests:
            if (digests, self.printed) != (self.digests, self.first_printed):
                raise SetupError("gen output differs from the first set-up pass")
            return
        for path, s, out in zip(self.paths, self.specs, self.printed):
            with open(path, encoding="utf-8") as fh:
                values = np.array(fh.read().split(), dtype=np.float64)
            if values.size != 1 << self.BITS or not np.all(np.isfinite(values)):
                raise SetupError(f"{path}: not 2^{self.BITS} finite values")
            key, _, printed = out.strip().partition("=")
            if key != "achieved_eps" or float(printed) != imbalance(values, s["mu"]):
                raise SetupError(f"{path}: printed {out.strip()!r} does not match "
                                 "the imbalance counted from the file")
            self.values.append(values)
        self.digests, self.first_printed = digests, self.printed

    def _estimate(self, i: int):
        path, s = self.paths[i], self.specs[i]
        base = ["estimate", "--data", path, "--mu", _fmt(s["mu"])]
        return (_cli(base),
                _cli(base + ["--mode", "sampled", "--theta", self.THETA,
                             "--seed", str(s["seed"])]))

    def _check(self, i: int, out) -> bool:
        (rc_e, text_e), (rc_s, text_s) = out
        if rc_e != 0 or rc_s != 0:
            return False
        try:
            exact, sampled = json.loads(text_e), json.loads(text_s)
            jsonschema.validate(exact, self.schema)
            jsonschema.validate(sampled, self.schema)
        except (ValueError, jsonschema.ValidationError):
            return False
        eps = imbalance(self.values[i], self.specs[i]["mu"])
        sign = 1 if eps > 0 else -1
        exact_ok = abs(exact["eps_hat"] - eps) <= 1e-6 and exact["sign"] == sign
        sampled_ok = (sampled["ci_lo"] <= abs(eps) <= sampled["ci_hi"]
                      and sampled["sign"] in ("unknown", sign))
        return exact_ok and sampled_ok

    def operations(self) -> List[Op]:
        return [Op(f"estimate-{i}", lambda i=i: self._estimate(i),
                   lambda out, i=i: self._check(i, out))
                for i in range(len(self.specs))]

    def explain(self, label: str) -> Dict[str, int]:
        return {}


WORKLOADS = {
    "median-exact": median_exact,
    "median-sampled": median_sampled,
    "cli-roundtrip": CliRoundTrip,
}
