"""The benchmark's traced run wraps library functions by name; each name it
lists must exist, or ``perfbench/run.py --trace 1`` fails at start-up. Each
workload must also run through the library as it stands and pass its own
checks, or the benchmark run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from epgw import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _perfbench_module("tracer")


def test_every_traced_name_resolves():
    missing = [
        f"epgw.{layer}.{name}"
        for layer, names in _tracer_module().TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"epgw.{layer}"), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "argv, rendered",
    [
        (["sweep-ncav", "--points", "5", "--format", "json"], 5),
        (["sweep-ncav", "--points", "5", "--format", "csv"], 5),
        (["sensitivity", "--points", "5", "--overlay", "OVERLAY", "--format", "json"], 8),
    ],
    ids=["sweep-ncav-json", "sweep-ncav-csv", "sensitivity-overlay-json"],
)
def test_traced_renderers_count_rows_and_overlays(tmp_path, argv, rendered):
    # the tracer counts a renderer's rows and overlay rows from its
    # positional arguments 4 and 5
    overlay = tmp_path / "reference.csv"
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n")
    argv = [str(overlay) if word == "OVERLAY" else word for word in argv]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        code = cli.main(argv + ["--output", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters["rendered_rows"] == rendered


@pytest.mark.parametrize("workload", ["sweep", "simulate", "ep-design"])
def test_every_benchmark_operation_passes_its_check(tmp_path, workload):
    # the benchmark's own call path, once per operation: a library change
    # that breaks what a workload calls fails here
    ops = _perfbench_module("workloads").WORKLOADS[workload](1, str(tmp_path)).ops()
    for op in ops:
        assert op.check(op.run()), op.name
