"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that inputs depend only on the seed, that every metric printed
is one BENCHMARK.json declares, and that a corrupted output is counted as a
failure. The repository's own test suite does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_library()

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, second, other = cls(7, str(tmp_path / "a")), cls(7, str(tmp_path / "b")), cls(8, str(tmp_path / "c"))
    assert repr(first.inputs()) == repr(second.inputs())
    assert repr(first.inputs()) != repr(other.inputs())
    if name == "sweep":
        assert Path(first.overlay_path).read_bytes() == Path(second.overlay_path).read_bytes()


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_layer_metric_names_match_benchmark_json():
    names = set(tracer.layer_metrics({}, {})) | {"trace_overhead_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "simulate",
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--spans", str(spans)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        recorded = [json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()]
        names = {span["name"] for span in recorded}
        assert {"cli.main", "dynamics.propagate_exact", "dynamics.estimate_spectrum"} <= names
        ids = {span["id"] for span in recorded}
        assert all(span["parent"] in ids or span["parent"] == -1 for span in recorded)
        assert all(span["start"] <= span["end"] for span in recorded)


def _corrupt(workload, op_name, corrupt):
    """A Runner whose ``op_name`` output is altered by ``corrupt`` after it runs."""
    runner = run.Runner(workload)
    runner.ops = [
        dataclasses.replace(op, run=lambda op=op: corrupt(op.run())) if op.name == op_name else op
        for op in runner.ops
    ]
    return runner


def _edit_file(path, old, new, count):
    text = Path(path).read_text(encoding="utf-8")
    assert old in text
    Path(path).write_text(text.replace(old, new, count), encoding="utf-8")


def test_wrong_phase_label_counts_as_failure(tmp_path):
    sweep = workloads.Sweep(5, str(tmp_path))

    def relabel(outcome):
        _edit_file(sweep.paths["ncav.csv"], ",pt_symmetric\n", ",broken\n", 1)
        return outcome

    runner = _corrupt(sweep, "sweep-ncav", relabel)
    runner.job()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert runner.failures[0].startswith("sweep-ncav: 2 phase transitions")


def test_shifted_peak_counts_as_failure(tmp_path):
    sim = workloads.Simulate(5, str(tmp_path))

    def shift(outcome):
        pair, estimate = outcome
        moved = [estimate.peak_frequencies[0] + 0.2 * estimate.resolution] + estimate.peak_frequencies[1:]
        return pair, dataclasses.replace(estimate, peak_frequencies=moved)

    runner = _corrupt(sim, "pt-run", shift)
    runner.job()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert runner.failures[0].startswith("pt-run: peak at")


def test_shifted_peak_in_written_file_counts_as_failure(tmp_path):
    sim = workloads.Simulate(5, str(tmp_path))

    def shift(outcome):
        # Move peak 0 by 1 kHz, about 0.18 of the 5.66 kHz resolution.
        _edit_file(sim.sim_path, "\n0,9.99717", "\n0,9.99718", 1)
        return outcome

    runner = _corrupt(sim, "simulate", shift)
    runner.job()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert runner.failures[0].startswith("simulate: peak 0")


def test_missing_no_ep_error_counts_as_failure(tmp_path):
    designs = workloads.EpDesign(5, str(tmp_path))
    index = next(i for i, d in enumerate(designs.designs) if d.kind == "detuned")
    runner = _corrupt(designs, f"design-{index:03d}", lambda outcome: (1.0, [], 1.0))
    runner.job()
    assert (runner.attempted, runner.failed) == (200, 1)


def test_output_changed_between_jobs_counts_as_failure(tmp_path):
    sim = workloads.Simulate(5, str(tmp_path))
    runner = run.Runner(sim)
    runner.job()
    runner.reference["rk"] = "0" * 64
    runner.job()
    assert runner.failed == 1 and "differs from the warm-up" in runner.failures[0]


@pytest.mark.parametrize("every, expected", [(0.0, 4), (math.inf, 2)])
def test_reference_readings_bracket_the_job(every, expected, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "REFERENCE_EVERY_S", every)
    ticks = iter(range(100))
    runner = run.Runner(workloads.Simulate(5, str(tmp_path)), speed_probe=lambda: 0.03 * (1 + next(ticks) % 2))
    readings = []
    wall, op_times = runner.job(readings=readings)
    assert runner.failed == 0 and len(op_times) == 3 and wall == sum(op_times)
    # a reading before the first operation and after the last, and between
    # operations once REFERENCE_EVERY_S of operation time has passed
    assert len(readings) == expected
    assert run.at_reference_speed(wall, readings) == pytest.approx(wall * run.REFERENCE_S / statistics.fmean(readings))


def test_op_percentiles_need_ten_operations_beyond():
    assert run.op_percentiles([0.001] * 3) == {}
    assert set(run.op_percentiles([0.001] * 199)) == {"op_ms_p50"}
    best = [k / 1000.0 for k in range(1, 201)]
    figures = run.op_percentiles(best)
    assert set(figures) == {"op_ms_p50", "op_ms_p95"}
    assert sum(b * 1e3 > figures["op_ms_p95"] for b in best) == 10


def test_spans_beyond_the_cap_are_counted(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(tracer, "SPAN_CAP", 5)
    sweep = workloads.Sweep(5, str(tmp_path))
    runner = run.Runner(sweep, tracer.Tracer())
    runner.ops = runner.ops[1:2]
    runner.job(traced=True)
    out = tmp_path / "spans.jsonl"
    runner.tracer.write_spans(str(out))
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5
    assert runner.tracer.dropped > 100_000
    assert f"{runner.tracer.dropped} later spans were dropped" in capsys.readouterr().err


def test_compare_reports_every_workload_and_metric(tmp_path):
    def write(side, workload, seed, scale):
        metrics = {m["name"]: {"value": scale, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        info = {"workload": workload, "seed": seed, "trace": 0, "started_unix": seed, "digests": {"a": "0"}}
        out = tmp_path / side / f"{workload}-{seed}.out"
        out.parent.mkdir(exist_ok=True)
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        out.write_text(f"perfbench-info {json.dumps(info)}\n{json.dumps(result)}\n", encoding="utf-8")

    for seed in range(10):
        for workload in ("sweep", "simulate"):
            write("parent", workload, seed, 1.0 + 0.001 * seed)
            write("change", workload, seed, 2.0 + 0.001 * seed)
    lines, bad = compare.compare(compare.load_runs(str(tmp_path / "parent")),
                                 compare.load_runs(str(tmp_path / "change")), SPEC)
    rows = [line for line in lines if line.endswith("REGRESSION")]
    assert bad and len(rows) == 2 * len(SPEC["end_to_end"])
    assert "outputs identical in 10/10 pairs" in lines[0]


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.2 for p in parent]
    assert compare.verdict(parent, faster, True, 0.1, False)[0] == "gain"
    assert compare.verdict(parent, faster, True, 0.1, True)[0] != "gain"
    assert compare.verdict(parent, slower, True, 0.1, False)[0] == "REGRESSION"
    assert compare.verdict(parent, parent[::-1], True, 0.1, False)[0] == "no regression"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, noisy[::-1], True, 0.1, False)[0] == "unresolved"
