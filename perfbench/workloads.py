"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks that every output is correct.

Every workload is a closed loop with one caller. A job is a fixed list of
operations run back to back, and the next job starts when the previous one
returns. Inputs come only from the seed. Each operation is timed on its own;
its output is checked after the job, outside the timed region. The library
is driven only from outside, through the public functions of ``epgw.core``,
``epgw.spectral``, ``epgw.dynamics``, ``epgw.sensitivity`` and ``epgw.cli``
(``cli.main`` in-process), always looked up as module attributes so that the
traced run sees the calls.

Each workload's docstring says why it exists and which per-layer metric
should move which end-to-end metric on it. Everything not listed there is
predicted not to move on that workload; later changes cite these by name.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

from epgw import cli, core, dynamics, sensitivity, spectral

TWO_PI = 2.0 * math.pi

# Documented representability floor of the EP discriminant, 8 eps J^2: the
# bound within which ep_photon_number promises to cancel |disc(n0)|.
DISC_FLOOR_FACTOR = 8.0 * sys.float_info.epsilon


class CheckFailed(Exception):
    """An output of the library is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run`` is the timed call. ``check`` gets its return value, raises
    CheckFailed when the output is wrong, and returns a sha256 digest per
    output artifact (a file written, or the repr of computed values).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], dict[str, str]]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _exit_ok(outcome: tuple[int, str], command: str) -> None:
    code, _stdout = outcome
    _require(code == 0, f"{command} exited {code}")


class Sweep:
    """``sweep``: the grid-sweep path, which most users run.

    One job is three in-process CLI calls of 20k points each, each writing
    its file: ``sweep-ncav`` on a linear grid across the EP (CSV),
    ``sweep-strain --log`` (CSV) and ``sensitivity --format json --overlay``
    with a seeded 20k-row overlay CSV. Work is per point, in ``spectral``
    and ``sensitivity``, plus ``core`` validation and ``cli`` rendering;
    ``dynamics`` does no work.

    Predictions: ``core.validate_calls``/``core.validate_s``,
    ``spectral.eig_calls``/``spectral.self_s``, ``sensitivity.self_s``/
    ``sensitivity.mds_calls``/``sensitivity.overlay_read_s`` and
    ``cli.self_s``/``cli.render_ns_per_row``/``cli.parse_s`` move ``job_s``.
    No ``dynamics`` metric moves here.
    """

    name = "sweep"
    POINTS = 20_000

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        cfg = cli.parse_config(None)
        self.coupling_j = cfg.coupling_rad_s()
        self.n0 = spectral.ep_photon_number(cfg.system())
        # The first sensitivity point lies below the knee 1/(2 t_max), so its
        # floor is h_min at tau = t_max.
        self.floor = sensitivity.min_detectable_strain(
            dataclasses.replace(cfg.context(), sample_time=cfg.sensitivity_t_max_s),
            cfg.resonator(),
            self.coupling_j,
        )
        points = str(self.POINTS)
        self.ncav = (self.n0 * rng.uniform(0.3, 0.8), self.n0 * rng.uniform(1.2, 1.7))
        self.strain = (10.0 ** rng.uniform(-27.0, -25.0), 10.0 ** rng.uniform(-9.0, -7.0))
        self.freq = (10.0 ** rng.uniform(-8.0, -6.0), 10.0 ** rng.uniform(2.0, 4.0))
        self.overlay = [
            (10.0 ** rng.uniform(-7.0, 3.0), 10.0 ** rng.uniform(-24.0, -18.0))
            for _ in range(self.POINTS)
        ]
        os.makedirs(workdir, exist_ok=True)
        self.overlay_path = os.path.join(workdir, "overlay.csv")
        with open(self.overlay_path, "w", encoding="utf-8") as fh:
            fh.write("frequency_hz,strain\n")
            fh.writelines(f"{f!r},{h!r}\n" for f, h in self.overlay)
        self.paths = {name: os.path.join(workdir, name) for name in ("ncav.csv", "strain.csv", "sens.json")}
        self.argv = {
            "sweep-ncav": [
                "sweep-ncav", "--min", repr(self.ncav[0]), "--max", repr(self.ncav[1]),
                "--points", points, "--output", self.paths["ncav.csv"],
            ],
            "sweep-strain": [
                "sweep-strain", "--log", "--min", repr(self.strain[0]), "--max", repr(self.strain[1]),
                "--points", points, "--output", self.paths["strain.csv"],
            ],
            "sensitivity": [
                "sensitivity", "--format", "json", "--fmin", repr(self.freq[0]), "--fmax", repr(self.freq[1]),
                "--points", points, "--overlay", self.overlay_path, "--output", self.paths["sens.json"],
            ],
        }

    def inputs(self) -> object:
        return self.ncav, self.strain, self.freq, self.overlay

    def ops(self) -> list[Op]:
        return [
            Op("sweep-ncav", _cli_call(self.argv["sweep-ncav"]), self.check_ncav),
            Op("sweep-strain", _cli_call(self.argv["sweep-strain"]), self.check_strain),
            Op("sensitivity", _cli_call(self.argv["sensitivity"]), self.check_sensitivity),
        ]

    def check_ncav(self, outcome) -> dict[str, str]:
        """Exactly one phase transition, PT to broken, across the EP."""
        _exit_ok(outcome, "sweep-ncav")
        path = self.paths["ncav.csv"]
        columns, rows = _read_csv(path)
        _require(columns[0] == "n_cav" and columns[-1] == "phase", f"unexpected columns {columns}")
        _require(len(rows) == self.POINTS, f"{len(rows)} rows, expected {self.POINTS}")
        n = [float(row[0]) for row in rows]
        _require(n[0] == self.ncav[0] and n[-1] == self.ncav[1], "grid endpoints moved")
        _require(all(a < b for a, b in zip(n, n[1:])), "photon-number grid not increasing")
        _require(
            all(math.isfinite(float(cell)) for row in rows for cell in row[1:5]),
            "non-finite eigenvalue",
        )
        phases = [row[-1] for row in rows]
        flips = [k for k in range(1, len(rows)) if phases[k] != phases[k - 1]]
        _require(len(flips) == 1, f"{len(flips)} phase transitions, expected exactly 1")
        k = flips[0]
        _require(
            phases[0] == "pt_symmetric" and phases[-1] == "broken",
            f"phases run {phases[0]} -> {phases[-1]}, expected pt_symmetric -> broken",
        )
        _require(n[k - 1] < self.n0 <= n[k], f"transition at n = {n[k]!r}, EP at {self.n0!r}")
        return {"ncav.csv": _file_digest(path)}

    def check_strain(self, outcome) -> dict[str, str]:
        """d_exact monotone in h, and the sqrt(h) law holds where h is small."""
        _exit_ok(outcome, "sweep-strain")
        path = self.paths["strain.csv"]
        columns, rows = _read_csv(path)
        _require(columns == ["h", "d_exact_rad_s", "d_approx_rad_s", "linewidth_split_rad_s", "rel_err"],
                 f"unexpected columns {columns}")
        _require(len(rows) == self.POINTS, f"{len(rows)} rows, expected {self.POINTS}")
        h = [float(row[0]) for row in rows]
        d = [float(row[1]) for row in rows]
        _require(all(a < b for a, b in zip(h, h[1:])), "strain grid not increasing")
        _require(all(x > 0.0 and math.isfinite(x) for x in d), "non-positive or non-finite d_exact")
        _require(all(a <= b for a, b in zip(d, d[1:])), "d_exact not monotone in h")
        # The relative deviation from 4 sqrt(2) J sqrt(h) is about 1.5 h.
        for hv, row in zip(h, rows):
            if hv <= 1e-10:
                _require(float(row[4]) <= 1e-9, f"rel_err {row[4]} at h = {hv!r}")
        return {"strain.csv": _file_digest(path)}

    def check_sensitivity(self, outcome) -> dict[str, str]:
        """Floor at t_max, h_min non-decreasing in f, overlay embedded exactly."""
        _exit_ok(outcome, "sensitivity")
        path = self.paths["sens.json"]
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        rows = payload["rows"]
        _require(len(rows) == self.POINTS, f"{len(rows)} rows, expected {self.POINTS}")
        f = [row[0] for row in rows]
        h = [row[2] for row in rows]
        _require(all(a < b for a, b in zip(f, f[1:])), "frequency grid not increasing")
        _require(all(a <= b for a, b in zip(h, h[1:])), "h_min decreases with frequency")
        _require(h[0] == self.floor, f"floor {h[0]!r}, expected {self.floor!r}")
        overlay = payload["overlays"][os.path.basename(self.overlay_path)]
        _require([tuple(pair) for pair in overlay] == self.overlay, "overlay rows changed on the way through")
        return {"sens.json": _file_digest(path)}


class Simulate:
    """``simulate``: the time-domain path.

    One job has three parts: the ``simulate`` CLI command at its defaults
    (strain 1e-4 at the located EP, 1,768,533 samples); a PT-phase run at a
    seeded 0.4..0.6 of n0 with two resolved peaks, set up as in acceptance
    criterion 7; and ``propagate_rk`` over 40,000 steps. Work is almost all
    in ``dynamics`` and memory; ``spectral`` makes a handful of eigenvalue
    calls and ``cli`` renders 2 rows.

    Predictions: ``dynamics.propagate_ns_per_sample``,
    ``dynamics.readout_s``, ``dynamics.fft_len``,
    ``dynamics.traj_bytes_computed`` and ``dynamics.rk_ns_per_step`` move
    ``job_s`` and ``peak_rss_mb``. No ``core``, ``spectral``,
    ``sensitivity`` or ``cli`` metric moves here.
    """

    name = "simulate"
    RK_STEPS = 40_000
    # RK4 error after 40k steps at 160 steps per period is about 3e-5.
    RK_TOLERANCE = 1e-3

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.device = cli.parse_config(None).system()
        self.n0 = spectral.ep_photon_number(self.device)
        self.pt_fraction = rng.uniform(0.4, 0.6)
        self.pt_initial = (1.0, complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
        resonator = core.MechanicalResonator(
            omega_m=TWO_PI * 1e6 * rng.uniform(0.9, 1.1), mass=1e-14, quality_factor=1e4, thickness=1e-7
        )
        cavity = core.OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
        self.rk_system = core.CoupledSystem(
            resonator_1=resonator, resonator_2=resonator, cavity_1=cavity, cavity_2=cavity,
            coupling_j=TWO_PI * 1e4 * rng.uniform(0.5, 2.0),
        )
        self.rk_dt = 0.1 * TWO_PI / (resonator.omega_m + self.rk_system.coupling_j) / 16.0
        self.rk_duration = self.RK_STEPS * self.rk_dt
        self.rk_initial = (complex(1.0, 0.0), complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        self._rk_reference = None
        os.makedirs(workdir, exist_ok=True)
        self.sim_path = os.path.join(workdir, "simulate.csv")
        self.argv = ["simulate", "--output", self.sim_path]

    def inputs(self) -> object:
        return self.pt_fraction, self.pt_initial, self.rk_system, self.rk_dt, self.rk_duration, self.rk_initial

    def ops(self) -> list[Op]:
        return [
            Op("simulate", _cli_call(self.argv), self.check_simulate),
            Op("pt-run", self.run_pt, self.check_pt),
            Op("rk", self.run_rk, self.check_rk),
        ]

    def run_pt(self):
        biased = self.device.with_photon_number(self.pt_fraction * self.n0)
        pair = spectral.eigenvalues_general(biased)
        split = pair.lambda_plus.real - pair.lambda_minus.real
        duration = 100.0 * TWO_PI / split
        dt = 0.1 * TWO_PI / abs(pair.lambda_plus.real)
        trajectory = dynamics.propagate_exact(biased, self.pt_initial, duration, dt)
        return pair, dynamics.estimate_spectrum(trajectory)

    def run_rk(self):
        return dynamics.propagate_rk(self.rk_system, self.rk_initial, self.rk_duration, self.rk_dt)

    def check_simulate(self, outcome) -> dict[str, str]:
        """Two peaks, each within resolution/10 of a distinct prediction."""
        _exit_ok(outcome, "simulate")
        columns, rows = _read_csv(self.sim_path)
        _require(columns == ["peak", "frequency_hz", "linewidth_hz", "predicted_hz", "resolution_hz"],
                 f"unexpected columns {columns}")
        _require(len(rows) == 2, f"{len(rows)} peaks, expected 2")
        predicted = {row[3] for row in rows}
        _require(len(predicted) == 2, "both peaks matched the same prediction")
        for row in rows:
            freq, pred, resolution = float(row[1]), float(row[3]), float(row[4])
            _require(abs(freq - pred) < resolution / 10.0,
                     f"peak {row[0]} at {freq!r} Hz is {abs(freq - pred) / resolution:.3f} "
                     f"resolutions from {pred!r} Hz")
        return {"simulate.csv": _file_digest(self.sim_path)}

    def check_pt(self, outcome) -> dict[str, str]:
        """Both PT-phase supermodes resolved within resolution/10."""
        pair, estimate = outcome
        got = sorted(estimate.peak_frequencies)
        want = sorted([pair.lambda_minus.real, pair.lambda_plus.real])
        _require(len(got) == 2, f"{len(got)} peaks, expected 2")
        for g, w in zip(got, want):
            _require(abs(g - w) < estimate.resolution / 10.0,
                     f"peak at {g!r} rad/s is {abs(g - w) / estimate.resolution:.3f} resolutions from {w!r}")
        return {"pt-run": _sha256(repr((got, estimate.peak_linewidths, estimate.resolution)).encode())}

    def check_rk(self, trajectory) -> dict[str, str]:
        """RK4 agrees with the closed-form propagator on the same grid."""
        if self._rk_reference is None:
            self._rk_reference = dynamics.propagate_exact(
                self.rk_system, self.rk_initial, self.rk_duration, self.rk_dt
            )
        ref = self._rk_reference
        _require(len(trajectory) == self.RK_STEPS + 1, f"{len(trajectory)} samples, expected {self.RK_STEPS + 1}")
        deviation = max(float(abs(trajectory.a1 - ref.a1).max()), float(abs(trajectory.a2 - ref.a2).max()))
        _require(deviation < self.RK_TOLERANCE, f"RK4 deviates {deviation:.3e} from the exact propagator")
        return {"rk": _sha256(trajectory.a1.tobytes() + trajectory.a2.tobytes())}


@dataclass(frozen=True)
class Design:
    kind: str
    system: core.CoupledSystem
    strains: tuple[float, ...]
    context: core.SensitivityContext


class EpDesign:
    """``ep-design``: many small library calls over a population of designs.

    The seeded population holds 100 balanced designs, 60 whose arms differ
    by a cavity-decay (kappa) mismatch, which take the 512-seed scan, the
    golden-section step and the float polish, and 40 detuned designs (the
    two mechanical frequencies differ), for which ``NoEPError`` is the
    correct answer. Each design is one operation: ``ep_photon_number``, then
    ``splitting`` at 4 strains, then ``min_detectable_strain``. One job is
    one pass over the shuffled population. The scalar, per-call path of
    ``spectral`` and ``core`` dominates, and so do the error paths; it is
    the kernel ``sweep`` uses, called differently, so a change that
    vectorises the sweeps but adds per-call overhead shows here as a
    slowdown.

    Predictions: ``core.validate_calls``/``core.validate_s`` move ``job_s``
    and the per-design median ``op_ms_p50`` of the info line (one operation
    is one design); ``spectral.eig_calls``, ``spectral.eig_us_per_call``,
    ``spectral.ep_locate_s`` and ``spectral.ep_locate_eig_calls`` move
    ``job_s`` and the per-design ``op_ms_p95`` (the scans of the unbalanced
    and detuned designs set the tail). No ``dynamics`` or ``cli`` metric
    moves here.
    """

    name = "ep-design"
    COUNTS = {"balanced": 100, "unbalanced": 60, "detuned": 40}
    STRAINS = 4

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        kinds = [kind for kind, count in self.COUNTS.items() for _ in range(count)]
        rng.shuffle(kinds)
        self.designs = [self._design(rng, kind) for kind in kinds]
        self.inexact: set[int] = set()

    @classmethod
    def _design(cls, rng: random.Random, kind: str) -> Design:
        resonator = core.MechanicalResonator(
            omega_m=TWO_PI * 1e9 * rng.uniform(0.8, 1.2),
            mass=5.3e-15 * rng.uniform(0.8, 1.2),
            quality_factor=1e5 * rng.uniform(0.5, 2.0),
            thickness=8e-8 * rng.uniform(0.8, 1.2),
        )
        system = core.balanced_system(
            resonator,
            length=1e-4 * rng.uniform(0.8, 1.2),
            kappa=TWO_PI * 1e8 * rng.uniform(0.8, 1.2),
            coupling_j=TWO_PI * 1e7 * rng.uniform(0.8, 1.2),
        )
        if kind == "unbalanced":
            red = dataclasses.replace(system.cavity_2, kappa=system.cavity_2.kappa * rng.uniform(1.05, 1.3))
            system = dataclasses.replace(system, cavity_2=red)
        elif kind == "detuned":
            shift = system.coupling_j * rng.uniform(0.05, 0.5)
            system = dataclasses.replace(
                system, resonator_2=dataclasses.replace(resonator, omega_m=resonator.omega_m + shift)
            )
        strains = tuple(sorted(10.0 ** rng.uniform(-24.0, -12.0) for _ in range(cls.STRAINS)))
        context = core.SensitivityContext(
            temperature=10.0 ** rng.uniform(-2.0, 2.5),
            sample_time=1.0,
            drive_amplitude=core.drive_amplitude_from_thickness(resonator.thickness),
            quality_factor=resonator.quality_factor,
        )
        return Design(kind, system, strains, context)

    def inputs(self) -> object:
        return self.designs

    def ops(self) -> list[Op]:
        return [
            Op(f"design-{index:03d}", self._runner(design), self._checker(index, design))
            for index, design in enumerate(self.designs)
        ]

    @staticmethod
    def _runner(design: Design) -> Callable[[], object]:
        def run():
            try:
                n0 = spectral.ep_photon_number(design.system)
            except core.NoEPError as exc:
                return exc
            splits = [spectral.splitting(design.system, n0, h) for h in design.strains]
            h_min = sensitivity.min_detectable_strain(
                design.context, design.system.resonator_1, design.system.coupling_j
            )
            return n0, splits, h_min

        return run

    def _checker(self, index: int, design: Design) -> Callable[[object], dict[str, str]]:
        key = f"design-{index:03d}"

        def check(outcome) -> dict[str, str]:
            if design.kind == "detuned":
                _require(isinstance(outcome, core.NoEPError), f"detuned design returned {outcome!r}, expected NoEPError")
                return {key: _sha256(b"NoEPError")}
            _require(not isinstance(outcome, core.NoEPError), f"{design.kind} design raised {outcome!r}")
            n0, splits, h_min = outcome
            system = design.system
            j = system.coupling_j
            _require(math.isfinite(n0) and n0 > 0.0, f"n0 = {n0!r}")
            disc = spectral.eigenvalues_general(system.with_photon_number(n0))
            if disc.discriminant == 0:
                _require(disc.phase is core.Phase.EXCEPTIONAL_POINT, f"phase {disc.phase} at an exact zero")
            else:
                # The float grid of n skips the exact cancellation: the library
                # promises |disc| within the representability floor instead.
                self.inexact.add(index)
                _require(abs(disc.discriminant) <= DISC_FLOOR_FACTOR * j * j,
                         f"|disc(n0)| = {abs(disc.discriminant):.3e} above 8 eps J^2")
            below = spectral.eigenvalues_general(system.with_photon_number(n0 * (1.0 - 1e-6))).phase
            above = spectral.eigenvalues_general(system.with_photon_number(n0 * (1.0 + 1e-6))).phase
            _require(below is core.Phase.PT_SYMMETRIC and above is core.Phase.BROKEN,
                     f"phases {below.value} / {above.value} around n0, expected pt_symmetric / broken")
            for result in splits:
                _require(result.d_exact > 0.0 and result.rel_error < 1e-6,
                         f"splitting at h = {result.strain!r}: d_exact {result.d_exact!r}, rel_err {result.rel_error!r}")
            noise = sensitivity.thermal_frequency_noise(design.context, system.resonator_1)
            _require(h_min > 0.0 and math.isclose(4.0 * math.sqrt(2.0) * j * math.sqrt(h_min), noise, rel_tol=1e-12),
                     f"h_min = {h_min!r} does not meet the thermal noise {noise!r}")
            return {key: _sha256(repr((n0, [(r.d_exact, r.linewidth_split) for r in splits], h_min)).encode())}

        return check

    def info(self) -> dict:
        return {"ep_designs_not_bit_exact": len(self.inexact)}


WORKLOADS = {cls.name: cls for cls in (Sweep, Simulate, EpDesign)}
