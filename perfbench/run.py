"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy. The run sets
up the seeded inputs, runs one warm-up job, then runs jobs back to back
(one caller, closed loop) for ``--seconds`` and checks every output.

With ``--trace 0`` it reports the end-to-end metrics, measured untraced
and expressed at a fixed machine speed (see ``Reference``). With ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced jobs plus ``trace_overhead_s``. The last
line of standard output is the result object; the line before it, prefixed
``perfbench-info``, carries the run's settings, versions and the sha256
digest of every output, which ``compare.py`` reads.
"""

from __future__ import annotations

import os

# One process, BLAS/OpenMP pinned to one thread, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import dataclasses
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11


def _import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import epgw from it."""
    src = ROOT / "src"
    if not (src / "epgw" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {src}/epgw; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import epgw

    if Path(epgw.__file__).resolve().parent != (src / "epgw").resolve():
        raise SystemExit(f"perfbench: imported epgw from {epgw.__file__}, not from {src}")


def _setup(workload: str, seed: int, workdir: Path):
    """Import the library and generate the seeded inputs: the timed set-up."""
    _import_library()
    import workloads

    return workloads.WORKLOADS[workload](seed, str(workdir))


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, which imports the library cold."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.split()[-1])


# A shared host runs the benchmark at a speed that drifts by up to 1.8x for
# minutes at a time, longer than a run. The process's CPU time drifts with
# the wall time (no steal time is accounted), so neither clock alone gives
# figures that two sets of runs reproduce. Each timed job is therefore
# bracketed by readings of a fixed reference workload that does not touch
# the library, and its time is scaled to the speed at which the reference
# takes REFERENCE_S. Over 30 s windows of back-to-back jobs on a 2-core
# Xeon host, this cut the spread of the job time (quartile distance over
# median) from 0.15-0.31 to 0.03 on sweep, from 0.09-0.12 to 0.01 on
# simulate and from 0.08 to 0.04 on ep-design. A library change moves the scaled time as it moves the
# wall time; the raw wall times are kept in the info line.
REFERENCE_S = 0.06
REFERENCE_EVERY_S = 0.25


class Reference:
    """A fixed piece of work outside the library, timed to read machine speed.

    It mirrors the library's two kinds of work: scalar complex arithmetic
    on small frozen dataclasses with text formatting, as in the per-point
    paths, and numpy array work (FFT and element-wise), as in the
    propagators. It takes about REFERENCE_S on the host the bounds were
    tuned on.
    """

    @dataclasses.dataclass(frozen=True)
    class _Mode:
        omega: float
        gamma: float

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._signal = numpy.sin(numpy.arange(1 << 18) * 1e-3)

    def __call__(self) -> float:
        np, signal, mode = self._numpy, self._signal, self._Mode
        start = time.perf_counter()
        rows = []
        for i in range(5000):
            a = complex(mode(1.0 + i * 1e-6, 0.01).omega, -0.005)
            b = complex(mode(1.0, 0.02).omega, -0.01)
            d = cmath.sqrt((a - b) * (a - b) + 4e-6 * (3.0 + i * 1e-4) ** 2)
            rows.append(f"{(a + b + d).real!r},{(a + b - d).imag!r},{abs(d):.17g}")
        "\n".join(rows)
        for _ in range(5):
            np.fft.rfft(signal)
            np.sqrt(np.abs(signal)) * signal
        return time.perf_counter() - start


def at_reference_speed(seconds: float, readings: list[float]) -> float:
    """``seconds`` measured while the reference read ``readings``, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(readings)


class Crash:
    """An operation that raised instead of returning: always a failure."""

    def __init__(self, exc: Exception):
        self.exc = exc


def op_percentiles(best: list[float]) -> dict[str, float]:
    """p50 and p95 of per-operation best times, in ms, where they mean something.

    A percentile is given only when at least 10 operations lie beyond it,
    so p95 needs 200 operations per job: ``ep-design``, where one operation
    is one design, has them; ``sweep`` and ``simulate``, with 3 each, get
    neither.
    """
    out = {}
    for q in (50, 95):
        if len(best) * (100 - q) >= 1000:
            out[f"op_ms_p{q}"] = statistics.quantiles(best, n=100, method="inclusive")[q - 1] * 1e3
    return out


class Runner:
    """Runs jobs of one workload, checks their outputs and keeps the counts."""

    def __init__(self, workload, tracer=None, speed_probe=None):
        self.ops = workload.ops()
        self.tracer = tracer
        self.speed_probe = speed_probe
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, traced: bool = False, readings: list[float] | None = None) -> tuple[float, list[float]]:
        """Run every operation once; return the job's wall time and op times.

        With a ``readings`` list, the reference is read before the first
        operation, after the last, and between operations whenever
        REFERENCE_EVERY_S of operation time has passed since the last
        reading. Readings are not part of the job's time.
        """
        clock = time.perf_counter
        outcomes = []
        op_times = []
        since_reading = math.inf
        if traced:
            self.tracer.install()
        try:
            for op in self.ops:
                if readings is not None and since_reading >= REFERENCE_EVERY_S:
                    readings.append(self.speed_probe())
                    since_reading = 0.0
                t0 = clock()
                try:
                    outcome = op.run()
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    outcome = Crash(exc)
                op_times.append(clock() - t0)
                since_reading += op_times[-1]
                outcomes.append(outcome)
            if readings is not None:
                readings.append(self.speed_probe())
        finally:
            if traced:
                self.tracer.uninstall()
        self._check(outcomes)
        return sum(op_times), op_times

    def _check(self, outcomes) -> None:
        digests: dict[str, str] = {}
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            try:
                if isinstance(outcome, Crash):
                    raise RuntimeError(f"raised {outcome.exc!r}")
                produced = op.check(outcome)
                if self.reference is not None:
                    for name, digest in produced.items():
                        if self.reference.get(name) != digest:
                            raise RuntimeError(f"{name} differs from the warm-up job's output")
                digests.update(produced)
            except Exception as exc:
                self.failed += 1
                self.failures.append(f"{op.name}: {exc}")
        if self.reference is None:
            self.reference = digests


def _run_untraced(runner: Runner, seconds: float, probe) -> tuple[dict[str, float], list[float], list[float], float]:
    """Job and set-up times at reference speed; wall times, op bests, reference.

    ``job_s`` is the median over the run's jobs of each job's time at
    reference speed. The set-up probes run between the first jobs, so that
    they meet the same machine speed; each is scaled by the reference read
    just before and just after it, and ``setup_s`` is their median.
    """
    job_times, walls, op_times, setups, readings = [], [], [], [], []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS:
            before = runner.speed_probe()
            setup = probe()
            setups.append(at_reference_speed(setup, [before, runner.speed_probe()]))
        job_readings = []
        wall, ops = runner.job(readings=job_readings)
        job_times.append(at_reference_speed(wall, job_readings))
        walls.append(wall)
        op_times.append(ops)
        readings += job_readings
    best = [min(times) for times in zip(*op_times)]
    metrics = {"job_s": statistics.median(job_times), "setup_s": statistics.median(setups)}
    return metrics, walls, best, statistics.median(readings)


def _run_traced(runner: Runner, seconds: float) -> tuple[dict[str, float], list[float]]:
    """Alternate untraced and traced jobs; per-layer figures of the best traced job."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.job()[0])
        traced.append(runner.job(traced=True)[0])
        layers.append(runner.tracer.take_job())
    metrics = dict(layers[traced.index(min(traced))])
    metrics["trace_overhead_s"] = min(traced) - min(plain)
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="with --trace 1, write the recorded spans to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            start = time.perf_counter()
            _setup(args.workload, args.seed, workdir)
            print(time.perf_counter() - start)
            return 0

        _import_library()
        import numpy
        import tracer
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        started = time.time()
        workload = _setup(args.workload, args.seed, workdir)
        runner = Runner(workload, tracer.Tracer() if args.trace else None, Reference())
        runner.job()  # warm-up: fills caches, records the reference digests
        if args.trace:
            metrics, job_times = _run_traced(runner, args.seconds)
            extra = {"spans_dropped": runner.tracer.dropped}
        else:
            metrics, job_times, best, reference_s = _run_untraced(
                runner, args.seconds, lambda: _probe_setup(args.workload, args.seed)
            )
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            extra = {"ops_per_job": len(best), "reference_median_s": reference_s, **op_percentiles(best)}
        if args.trace and args.spans:
            runner.tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for failure in runner.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    units = {}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        units[entry["name"]] = entry["unit"]
    fail_ratio = runner.failed / runner.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(job_times)} timed jobs, "
          f"fail_ratio={fail_ratio} ({runner.failed}/{runner.attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "job_times_s": job_times,
        "fail_ratio": fail_ratio,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "digests": runner.reference,
        **extra,
        **(workload.info() if hasattr(workload, "info") else {}),
    }
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
