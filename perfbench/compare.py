"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py RESULTS_PARENT RESULTS_CHANGE

Each argument is a directory holding the captured standard output of
``run.py`` runs, one file per run. Runs pair up by workload and seed; make
at least ten pairs per workload, alternating which commit runs first.

For every workload and end-to-end metric the report gives each side's
median and quartiles, how many pairs the change won, and a verdict:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side), the medians differ by more than the parent's own
  spread (the distance between its quartiles), and no more operations
  failed than at the parent.
- ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound in BENCHMARK.json, and not every run of the change beat
  every run of the parent.
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound.
- ``no regression``: otherwise.

The per-operation percentiles of the info line, where a workload has
them (``ep-design``), and the per-layer medians of traced runs are listed
after, without a verdict, to show where a saving appears. Output digests
are compared pair by pair: performance work should keep every output
byte-identical. The exit code is 1 when any metric regressed or more
operations failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: str) -> dict[tuple, dict]:
    """Map (workload, seed, trace) -> {"info": ..., "result": ...} for every run file."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        info = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-info ")), None)
        if info is None:
            continue
        runs[(info["workload"], info["seed"], info["trace"])] = {"info": info, "result": json.loads(lines[-1])}
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float,
            more_failures: bool) -> tuple[str, int]:
    """Apply the pairing rule and the regression bound to paired runs."""

    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    worse_by = (c_med - p_med) / p_med if lower_is_better else (p_med - c_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = all(better(c, p) for c in change for p in parent)
    if (wins >= 0.9 * len(parent) and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1
            and not more_failures):
        return "gain", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "REGRESSION", wins
    return "no regression", wins


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> tuple[list[str], bool]:
    lines = []
    bad = False
    paired = sorted(set(parent_runs) & set(change_runs))
    for workload in sorted({key[0] for key in paired}):
        keys = [k for k in paired if k[0] == workload and k[2] == 0]
        if not keys:
            lines.append(f"{workload}: no paired untraced runs")
            continue
        parent_first = sum(parent_runs[k]["info"]["started_unix"] < change_runs[k]["info"]["started_unix"]
                           for k in keys)
        failed = [sum(runs[k]["result"]["failed"] for k in keys) for runs in (parent_runs, change_runs)]
        attempted = [sum(runs[k]["result"]["attempted"] for k in keys) for runs in (parent_runs, change_runs)]
        identical = sum(parent_runs[k]["info"]["digests"] == change_runs[k]["info"]["digests"] for k in keys)
        lines.append(
            f"{workload}: {len(keys)} pairs ({parent_first} with the parent first); failed "
            f"{failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]}; outputs identical in "
            f"{identical}/{len(keys)} pairs"
        )
        bad |= failed[1] > failed[0]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [parent_runs[k]["result"]["metrics"][name]["value"] for k in keys]
            change = [change_runs[k]["result"]["metrics"][name]["value"] for k in keys]
            lower = metric["better"] == "lower"
            result, wins = verdict(parent, change, lower, metric["bound"], failed[1] > failed[0])
            bad |= result == "REGRESSION"
            p_q1, p_med, p_q3 = _quartiles(parent)
            c_q1, c_med, c_q3 = _quartiles(change)
            lines.append(
                f"  {workload:<10} {name:<12} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {metric['unit']}  "
                f"{(c_med - p_med) / p_med:+.2%}  wins {wins}/{len(keys)}  bound {metric['bound']:.0%}  {result}"
            )
        for name in ("op_ms_p50", "op_ms_p95"):
            if all(name in runs[k]["info"] for runs in (parent_runs, change_runs) for k in keys):
                parent = statistics.median(parent_runs[k]["info"][name] for k in keys)
                change = statistics.median(change_runs[k]["info"][name] for k in keys)
                lines.append(f"  {workload:<10} {name:<12} parent {parent:.6g}  change {change:.6g} ms  (info line)")
        traced = [k for k in paired if k[0] == workload and k[2] == 1]
        for metric in spec["per_layer"] if traced else []:
            name = metric["name"]
            parent = statistics.median(parent_runs[k]["result"]["metrics"][name]["value"] for k in traced)
            change = statistics.median(change_runs[k]["result"]["metrics"][name]["value"] for k in traced)
            lines.append(f"  {workload:<10} {name:<32} parent {parent:.6g}  change {change:.6g} {metric['unit']}")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of run outputs of the parent commit")
    parser.add_argument("change", help="directory of run outputs of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, bad = compare(load_runs(args.parent), load_runs(args.change), spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
