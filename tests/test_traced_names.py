"""The benchmark's traced run wraps library functions by name; each name it
lists must exist, or ``perfbench/run.py --trace 1`` fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from epgw import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
