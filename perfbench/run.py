"""Benchmark for qmedian: median search (exact and sampled) and the CLI
dataset round trip.

    python3 perfbench/run.py --workload median-exact --seed 1 --seconds 30 --trace 0

runs one workload in this single-threaded process against the package
under ``src/`` and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the package's layer functions are wrapped (see tracing.py)
and the metrics are the per-layer ones, per operation.  Without
``--workload`` every workload runs in a child process of its own, one after
the other.  Results and traces go to ``perfbench/out/``.

A run prepares the workload's inputs, times the set-up at least
SETUP_PASSES times and for at least SETUP_SECONDS in all (one traced pass
with ``--trace 1``), then repeats whole rounds of the
workload's fixed list of operations until ``--seconds`` have passed.  Every operation's output is checked after its timer stops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per process, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# set-up repeats until both hold, so even a 0.1 s set-up has a steady median
SETUP_PASSES = 3
SETUP_SECONDS = 2.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seed < 0 or not ns.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return ns


def _import_package():
    """Imports qmedian from this checkout's src/, and nowhere else."""
    if not (SRC / "qmedian" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qmedian package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmedian

    if Path(qmedian.__file__).resolve().parent != SRC / "qmedian":
        sys.exit(f"perfbench: imported qmedian from {qmedian.__file__}")


def _run_all(ns, names) -> int:
    status = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                "--trace", str(ns.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else ''}", flush=True)
        status = status or proc.returncode
    return status


def _measure(ops, seconds, tracer):
    """Whole rounds of ops, until the first round end at or after seconds."""
    from qmedian.errors import QmedianError

    durations, failed = [], []
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(durations)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except QmedianError as e:
                out = e
            durations.append(time.perf_counter() - t0)
            if isinstance(out, QmedianError) or not op.check(out):
                failed.append(op.label)
        if time.perf_counter() - start >= seconds:
            return durations, failed


def main(argv=None) -> int:
    ns = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    _import_package()
    if ns.workload is None:
        return _run_all(ns, names)
    if ns.workload not in names:
        sys.exit(f"perfbench: unknown workload {ns.workload!r}; one of {names}")

    import workloads
    from tracing import Tracer, layer_metrics

    tracer = None
    if ns.trace:
        tracer = Tracer()
        tracer.install()
    work = workloads.WORKLOADS[ns.workload](ns.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{ns.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        work.prepare(str(workdir))
        setup_s = []
        correct = True
        while not setup_s or not tracer and (
                len(setup_s) < SETUP_PASSES or sum(setup_s) < SETUP_SECONDS):
            t0 = time.perf_counter()
            work.setup()
            setup_s.append(time.perf_counter() - t0)
            try:
                work.check_setup()
            except workloads.SetupError as e:
                print(f"perfbench: set-up check failed: {e}", file=sys.stderr)
                correct = False
        setup_counts = tracer.counts.copy() if tracer else None
        ops = work.operations()
        durations, failed = _measure(ops, ns.seconds, tracer)
        if tracer:
            tracer.uninstall()
            values = layer_metrics(tracer, setup_counts, len(ops), len(durations))
        else:
            values = {
                "ops_per_s": (len(durations) - len(failed)) / sum(durations),
                "op_s_p50": statistics.median(durations),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        explained = {label: work.explain(label) for label in sorted(set(failed))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if tracer else "end_to_end"
    result = {
        "correct": correct,
        "attempted": len(durations),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[kind]},
    }
    stem = OUT / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    detail = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
              "ops_per_round": len(ops), "rounds": len(durations) // len(ops),
              "op_s": durations, "setup_s": setup_s, "failed_ops": failed,
              "failed_explained": explained, "result": result}
    if tracer:
        detail["op_s_p50_traced"] = statistics.median(durations)
        tracer.write(str(stem) + ".spans.json", detail)
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for label, why in explained.items():
        print(f"perfbench: {ns.workload}: {label} failed its check: {why}",
              file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
