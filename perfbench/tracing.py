"""Span tracer installed from outside the package, and the per-layer metrics
derived from its spans.

The package binds its collaborators with ``from ... import``, so each layer
function is wrapped where it is consumed: ``qmedian.driver.conditional_phase``
is the statevector call the driver makes, ``qmedian.estimator.run_experiment``
is the driver call the estimator makes, and so on.  The benchmark itself calls
``qmedian.dataset.read_dataset``, ``qmedian.adaptive.median_search_counted``
and ``qmedian.cli.main`` through their module attributes, so those wraps catch
its own calls.

Every wrapped call records a span (name, operation id, parent span, start,
end) in flat arrays and adds to the counters of its layer.  Spans stay in
memory until ``write`` dumps them.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded and nest.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

SETUP_OP = -1


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _amps(args, kwargs, result) -> Dict[str, int]:
    first = _arg(args, kwargs, 0, "state")
    n = first if isinstance(first, int) else first.n
    return {"statevector.amps_touched": 1 << n}


def _draws(args, kwargs, result) -> Dict[str, int]:
    return {"rng.draws": _arg(args, kwargs, 1, "count")}


def _experiment(args, kwargs, result) -> Dict[str, int]:
    plan = _arg(args, kwargs, 1, "plan")
    sampled = plan.mode == "sampled"
    return {"driver.loop_passes": plan.beta,
            "driver.amplified_draws": plan.alpha if sampled else 0}


def _classical(args, kwargs, result) -> Dict[str, int]:
    return {"baseline.classical_draws": _arg(args, kwargs, 1, "m")}


def _read(args, kwargs, result) -> Dict[str, int]:
    return {"dataset.read_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write(args, kwargs, result) -> Dict[str, int]:
    return {"dataset.write_bytes": len(result.encode("utf-8"))}


def _bisection(args, kwargs, result) -> Dict[str, int]:
    _, steps, calls = result
    return {"adaptive.bisection_steps": steps, "adaptive.scales": calls}


# (consuming module[:class], attribute, span name, extra counter)
WRAPS = [
    ("qmedian.driver", "uniform_state", "statevector.uniform_state", _amps),
    ("qmedian.driver", "conditional_phase", "statevector.conditional_phase", _amps),
    ("qmedian.driver", "diffusion", "statevector.diffusion", _amps),
    ("qmedian.driver", "shift", "statevector.shift", _amps),
    ("qmedian.driver", "probability_of", "statevector.probability_of", _amps),
    ("qmedian.driver", "sample_many", "statevector.sample_many", _amps),
    ("qmedian.driver", "sample", "statevector.sample", _amps),
    ("qmedian.statevector:StateVector", "norm_sq", "statevector.norm_sq", _amps),
    ("qmedian.driver", "bulk_uniforms", "rng.bulk_uniforms", _draws),
    ("qmedian.baseline", "bulk_uniforms", "rng.bulk_uniforms", _draws),
    ("qmedian.dataset", "bulk_uniforms", "rng.bulk_uniforms", _draws),
    ("qmedian.estimator", "run_experiment", "driver.run_experiment", _experiment),
    ("qmedian.estimator", "make_oracle", "dataset.make_oracle", None),
    ("qmedian.estimator", "predicted_fraction", "model.predicted_fraction", None),
    ("qmedian.estimator", "classical_estimate", "baseline.classical_estimate", _classical),
    ("qmedian.adaptive", "eps_est", "estimator.eps_est", None),
    ("qmedian.cli", "eps_est", "estimator.eps_est", None),
    ("qmedian.cli", "read_dataset", "dataset.read_dataset", _read),
    ("qmedian.dataset", "read_dataset", "dataset.read_dataset", _read),
    ("qmedian.cli", "synth_dataset", "dataset.synth_dataset", None),
    ("qmedian.cli", "dataset_to_text", "dataset.dataset_to_text", _write),
    ("qmedian.adaptive", "median_search_counted", "adaptive.median_search_counted",
     _bisection),
    ("qmedian.cli", "main", "cli.main", None),
]


def _resolve(path: str):
    mod_name, _, cls = path.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """In-memory span recorder with per-span-name call counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.current_op = SETUP_OP
        self._stack: List[int] = []
        self._installed: list = []
        self._t0 = time.perf_counter_ns()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, span: str,
             counter: Optional[Callable]) -> None:
        fn = getattr(owner, attr)
        sid = self._name_id(span)
        calls_key = "calls:" + span
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(sid)
            tracer.op.append(tracer.current_op)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter_ns() - tracer._t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns() - tracer._t0
                tracer._stack.pop()
            tracer.counts[calls_key] += 1
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def install(self) -> None:
        for owner, attr, span, counter in WRAPS:
            self.wrap(_resolve(owner), attr, span, counter)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def durations(self) -> Dict[str, np.ndarray]:
        """Per-span arrays: layer index, op id, duration and self time (ns)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        layers = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of_name = np.array(
            [layers.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int32)
        layer = layer_of_name[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        return {
            "layers": layers,
            "layer": layer,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "dur": dur,
            "self": dur - child,
            # outermost span of its layer: its duration is layer busy time
            "outer": parent_layer != layer,
        }

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "op": self.op.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _layer_sums(d: Dict[str, np.ndarray], mask: np.ndarray) -> dict:
    busy, self_s = {}, {}
    for i, layer in enumerate(d["layers"]):
        sel = mask & (d["layer"] == i)
        busy[layer] = float(d["dur"][sel & d["outer"]].sum()) * 1e-9
        self_s[layer] = float(d["self"][sel].sum()) * 1e-9
    return {"busy": busy, "self": self_s}


def _span_sum(tr: Tracer, d: Dict[str, np.ndarray], mask: np.ndarray,
              span: str) -> float:
    sel = mask & (np.frombuffer(tr.name, dtype=np.int32) == tr.names.index(span))
    return float(d["dur"][sel].sum()) * 1e-9


def _phase_totals(tr: Tracer, d: Dict[str, np.ndarray], mask: np.ndarray,
                  counts: Counter) -> Dict[str, float]:
    """Raw per-layer totals (counts and seconds) over the spans in mask."""
    sums = _layer_sums(d, mask)

    def calls(layer: str) -> int:
        return sum(v for k, v in counts.items()
                   if k.startswith("calls:" + layer + "."))

    def called(span: str) -> int:
        return counts.get("calls:" + span, 0)

    return {
        "rng.draws": counts.get("rng.draws", 0),
        "rng.busy_s": sums["busy"].get("rng", 0.0),
        "statevector.calls": calls("statevector"),
        "statevector.amps_touched": counts.get("statevector.amps_touched", 0),
        "statevector.busy_s": sums["busy"].get("statevector", 0.0),
        "driver.experiments": called("driver.run_experiment"),
        "driver.loop_passes": counts.get("driver.loop_passes", 0),
        "driver.amplified_draws": counts.get("driver.amplified_draws", 0),
        "driver.self_s": sums["self"].get("driver", 0.0),
        "dataset.oracles": called("dataset.make_oracle"),
        "dataset.oracle_s": _span_sum(tr, d, mask, "dataset.make_oracle"),
        "dataset.read_bytes": counts.get("dataset.read_bytes", 0),
        "dataset.read_s": _span_sum(tr, d, mask, "dataset.read_dataset"),
        "dataset.write_bytes": counts.get("dataset.write_bytes", 0),
        "dataset.write_s": _span_sum(tr, d, mask, "dataset.dataset_to_text"),
        "model.fraction_evals": called("model.predicted_fraction"),
        "model.busy_s": sums["busy"].get("model", 0.0),
        "estimator.estimates": called("estimator.eps_est"),
        "estimator.self_s": sums["self"].get("estimator", 0.0),
        "baseline.probes": called("baseline.classical_estimate"),
        "baseline.classical_draws": counts.get("baseline.classical_draws", 0),
        "baseline.busy_s": sums["busy"].get("baseline", 0.0),
        "adaptive.bisection_steps": counts.get("adaptive.bisection_steps", 0),
        "adaptive.scales": counts.get("adaptive.scales", 0),
        "cli.self_s": sums["self"].get("cli", 0.0),
    }


def layer_metrics(tr: Tracer, setup_counts: Counter, ops_per_round: int,
                  ops_done: int) -> Dict[str, float]:
    """Per-operation layer metrics.

    Work done in the traced set-up pass is charged once per round, so each
    value is (set-up total) / ops_per_round + (operation total) / ops_done.
    The operations are whole rounds of one fixed list, so every count comes
    out the same however many rounds ran.
    """
    d = tr.durations()
    op_counts = tr.counts - setup_counts
    setup = _phase_totals(tr, d, d["op"] == SETUP_OP, setup_counts)
    ops = _phase_totals(tr, d, d["op"] != SETUP_OP, op_counts)
    out = {k: setup[k] / ops_per_round + ops[k] / ops_done for k in ops
           if k != "adaptive.scales"}
    # ratios of the operations' integer totals, so they repeat exactly
    amplified = ops["driver.amplified_draws"]
    steps = ops["adaptive.bisection_steps"]
    out["baseline.classical_per_amplified_draw"] = (
        ops["baseline.classical_draws"] / amplified if amplified else 0.0)
    out["adaptive.scales_per_step"] = (
        ops["adaptive.scales"] / steps if steps else 0.0)
    return out
