"""The benchmark's tracer wraps package functions by module and name, so a
package change that drops or renames one breaks ``perfbench/run.py --trace 1``.
Resolve every wrapped name here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_resolve_against_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner, attr, _span, _counter in tracing.WRAPS:
        mod_name, _, cls = owner.partition(":")
        target = importlib.import_module(mod_name)
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert tracing.WRAPS and missing == []
