"""The benchmark's traced run wraps library functions by name; each name it
lists must exist, or ``perfbench/run.py --trace 1`` fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves():
    missing = [
        f"epgw.{layer}.{name}"
        for layer, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"epgw.{layer}"), name, None))
    ]
    assert missing == []
