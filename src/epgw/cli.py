"""Command-line front end.

Config files are flat dotted-key text, one ``key = value`` per line with
``#`` comments. All frequencies in configs and CSV columns suffixed _hz
are plain Hz; conversion to the library's internal rad/s happens here.
Unset keys fall back to the reference device defaults, so every
subcommand runs with zero configuration.

Output files are byte-deterministic, with fixed column schemas. The header
records the command, the config and every flag of the command as the run
resolved it, so a file can be replayed from its header alone (see _emit).
CSV writes floats with 17 significant digits under a ``# key = value``
comment header; JSON writes one line, keys sorted, floats as
``float.__repr__``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigParseError,
    CoupledSystem,
    EpgwError,
    InvalidRangeError,
    MechanicalResonator,
    SensitivityContext,
    UnknownKeyError,
    ValidationError,
    _check_nonnegative,
    _check_positive,
    _read_utf8,
    _zero_or_normal,
    balanced_system,
    drive_amplitude_from_thickness,
    require_nonnegative,
    require_positive,
    require_strain,
)
from .dynamics import estimate_spectrum, propagate_exact
from .sensitivity import read_overlay_csv, sensitivity_curve
from .spectral import (
    EpConvention,
    _arms,
    ep_photon_number,
    eigenvalues_general,
    sweep_photon_number,
    sweep_strain,
)

TWO_PI = 2.0 * math.pi


class _UsageError(EpgwError):
    """Bad command line (unknown flag, missing argument, bad choice)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, inf or nan (float()'s
        # spellings), so it would read `--strain -1e-4` or `-inf` as an option
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):  # keep exit-code control in main()
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings (user-facing units: Hz, kg, m, K, s).

    The config table: field ``resonator_frequency_hz`` is key
    ``resonator.frequency_hz``, defaults describe the reference device, and
    field order is serialization order."""

    resonator_frequency_hz: float = 1e9
    resonator_mass_kg: float = 5.3e-15
    resonator_thickness_m: float = 8e-8
    resonator_quality_factor: float = 1e5
    resonator_gamma_m_hz: float = 0.0
    cavity_length_m: float = 1e-4
    cavity_decay_rate_hz: float = 1e8
    coupling_j_hz: float = 1e7
    noise_temperature_k: float = 300.0
    sensitivity_t_max_s: float = 3600.0

    def resonator(self) -> MechanicalResonator:
        return MechanicalResonator(
            omega_m=TWO_PI * self.resonator_frequency_hz,
            mass=self.resonator_mass_kg,
            quality_factor=self.resonator_quality_factor,
            thickness=self.resonator_thickness_m,
            gamma_m=TWO_PI * self.resonator_gamma_m_hz,
        )

    def system(self) -> CoupledSystem:
        """Balanced blue/red system, undriven."""
        return balanced_system(
            self.resonator(),
            length=self.cavity_length_m,
            kappa=TWO_PI * self.cavity_decay_rate_hz,
            coupling_j=TWO_PI * self.coupling_j_hz,
        )

    def context(self) -> SensitivityContext:
        return SensitivityContext(
            temperature=self.noise_temperature_k,
            sample_time=self.sensitivity_t_max_s,
            drive_amplitude=drive_amplitude_from_thickness(self.resonator_thickness_m),
            quality_factor=self.resonator_quality_factor,
        )

    def coupling_rad_s(self) -> float:
        return TWO_PI * self.coupling_j_hz

    def to_text(self) -> str:
        """Serialize to the config format (keys in canonical order)."""
        return "".join(f"{key} = {getattr(self, attr)!r}\n" for key, attr in _ATTR.items())


# Config key -> RunConfig attribute, in serialization order.
_ATTR = {f.name.replace("_", ".", 1): f.name for f in dataclasses.fields(RunConfig)}

# Reference device, by config key.
CONFIG_DEFAULTS = {key: getattr(RunConfig, attr) for key, attr in _ATTR.items()}

# The keys that may be zero; every other value must be > 0.
_MAY_BE_ZERO = {"resonator.gamma_m_hz", "coupling.j_hz"}


def parse_config_text(text: str) -> RunConfig:
    """Parse config text over the defaults, validate it and return it.

    Later lines win over earlier ones. Every value must be finite and
    within its range, 0 or a normal double, and 2 pi times each ``_hz``
    value must be finite; ``coupling.j_hz = 0`` is valid (decoupled modes).

    Raises:
        ConfigParseError, UnknownKeyError: malformed input.
        ValidationError: any value out of range or not finite, named by
            its key as written.
    """
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ATTR:
            raise UnknownKeyError(key)
        if not value:
            raise ConfigParseError(line_no, f"missing value for {key!r}")
        try:
            values[_ATTR[key]] = float(value)
        except ValueError:
            raise ConfigParseError(line_no, f"not a number: {value!r}") from None
    cfg = RunConfig(**values)
    violations = []
    for key, attr in _ATTR.items():
        value = getattr(cfg, attr)
        err = (_check_nonnegative if key in _MAY_BE_ZERO else _check_positive)(key, value)
        if err is None and not _zero_or_normal(value):
            err = InvalidRangeError(f"{key} = {value!r} is subnormal; need 0 or a normal double")
        if err is None and key.endswith("_hz") and not math.isfinite(TWO_PI * value):
            err = InvalidRangeError(f"{key} = {value!r} overflows double precision in rad/s")
        if err is not None:
            violations.append(err)
    if violations:
        raise ValidationError(violations)
    return cfg


def parse_config(path: str | None) -> RunConfig:
    """Load a config file, or the defaults for None, validated.

    Raises:
        ConfigParseError, UnknownKeyError: malformed input, a byte that
            is not UTF-8 included.
        ValidationError: any physical field out of range or not finite.
        OSError: unreadable file.
    """
    return parse_config_text("" if path is None else _read_utf8(path))


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------


# %-format code of a CSV cell by its type; any other value is a float with
# 17 significant digits
_CSV_CODE = {str: "%s", bool: "%s", int: "%d"}


def _rows(names: list[str], *columns) -> list[tuple]:
    """Table rows from equal-length array columns, as Python scalars.

    Raises:
        InvalidRangeError: a float cell that core._zero_or_normal refuses
            (NaN, inf or subnormal), for CSV and JSON alike, so no renderer
            is handed one; named by its column and value.
    """
    for name, column in zip(names, columns):
        refused = column[~_zero_or_normal(column)] if column.dtype.kind == "f" else ()
        if len(refused):
            raise InvalidRangeError(f"{name} = {refused[0].item()!r}: a written cell must be 0 or a normal double")
    return list(zip(*(column.tolist() for column in columns)))


_phase_values = np.frompyfunc(lambda phase: phase.value, 1, 1)  # Phase.value, elementwise


def _header_lines(cfg: RunConfig, command: str, flags: dict) -> list[str]:
    lines = [f"# command = {command}"]
    lines += [f"# {line}" for line in cfg.to_text().splitlines()]
    for name in sorted(flags):
        lines.append(f"# flag.{name} = {flags[name]!r}")
    return lines


def render_csv(
    cfg: RunConfig,
    command: str,
    flags: dict,
    columns: list[str],
    rows: list[list],
    overlays: dict[str, list[tuple[float, float]]] | None = None,
) -> str:
    out = _header_lines(cfg, command, flags)
    out.append(",".join(columns))
    if rows:  # each column holds one type, so the first row formats them all
        fmt = ",".join(_CSV_CODE.get(type(cell), "%.16e") for cell in rows[0])
        out += [fmt % tuple(row) for row in rows]
    for name in sorted(overlays or {}):
        out.append(f"# overlay = {name}")
        out.append("frequency_hz,strain")
        out += ["%.16e,%.16e" % (f, h) for f, h in overlays[name]]
    return "\n".join(out) + "\n"


def render_json(
    cfg: RunConfig,
    command: str,
    flags: dict,
    columns: list[str],
    rows: list[list],
    overlays: dict[str, list[tuple[float, float]]] | None = None,
) -> str:
    """The payload as one line of compact JSON, keys sorted, floats as
    float.__repr__; a NaN or inf cell raises ValueError."""
    payload = {
        "command": command,
        "config": {key: getattr(cfg, attr) for key, attr in _ATTR.items()},
        "flags": flags,
        "columns": columns,
        "rows": rows,
    }
    if overlays:
        payload["overlays"] = overlays
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


# The options that name the run's files rather than the run.
_NOT_FLAGS = {"command", "config", "output", "format"}


def _emit(args, cfg, columns, rows, overlays=None, **resolved):
    """Write the table to --output, if given, in --format: json for
    ep-locate, csv for every other command.

    The header records the command, the config and every flag of the
    command as the run resolved it: the parsed flags but the file options,
    updated by ``resolved``, the values the command derived
    (simulate's photon number, duration and dt, sweep-strain's n0, the
    overlay names). So a file can be replayed from its header."""
    if args.output is None:
        return
    flags = {name: value for name, value in vars(args).items() if name not in _NOT_FLAGS}
    flags.update(resolved)
    fmt = args.format or ("json" if args.command == "ep-locate" else "csv")
    render = render_csv if fmt == "csv" else render_json
    text = render(cfg, args.command, flags, columns, rows, overlays)
    with open(args.output, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({fmt}, {len(rows)} rows)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _coupled_system(cfg: RunConfig) -> CoupledSystem:
    """cfg.system() for the commands that need the modes coupled: to them
    coupling.j_hz = 0 is a bad value (exit 1), while ep-locate reports it
    as a missing EP (ZeroCouplingError, exit 2)."""
    require_positive("j_hz", cfg.coupling_j_hz, "coupling")
    return cfg.system()


def cmd_ep_locate(cfg: RunConfig, args) -> int:
    convention = EpConvention(args.ep_convention)
    system = cfg.system()
    n0 = ep_photon_number(system, convention)
    arm_1, arm_2 = _arms(system)
    g0, phi = arm_1.g0, arm_1.phi
    gamma_1, gamma_2 = arm_1.damping(n0), arm_2.damping(n0)
    pair = eigenvalues_general(system.with_photon_number(n0), convention)

    print(f"n0 = {n0:.6e}")
    print(f"g0 = {g0:.6e} rad/s ({g0 / TWO_PI:.6e} Hz)")
    print(f"phi = {phi:.6e} s  (arm 1, blue-detuned)")
    print(f"gamma_1 = {gamma_1:.6e} rad/s")
    print(f"gamma_2 = {gamma_2:.6e} rad/s")
    print(f"convention = {convention.value}")
    print(f"phase at n0 = {pair.phase.value}")

    columns = ["n0", "g0_rad_s", "phi_s", "gamma_1_rad_s", "gamma_2_rad_s"]
    rows = _rows(columns, *np.array([[n0, g0, phi, gamma_1, gamma_2]]).T)
    _emit(args, cfg, columns, rows)
    return 0


def cmd_sweep_ncav(cfg: RunConfig, args) -> int:
    convention = EpConvention(args.ep_convention)
    grid, pair = sweep_photon_number(
        _coupled_system(cfg), args.min, args.max, args.points, log=args.log, convention=convention
    )
    columns = ["n_cav", "re_plus_hz", "re_minus_hz", "im_plus_hz", "im_minus_hz", "phase"]
    parts = (pair.lambda_plus.real, pair.lambda_minus.real, pair.lambda_plus.imag, pair.lambda_minus.imag)
    rows = _rows(columns, grid, *(part / TWO_PI for part in parts), _phase_values(pair.phase))
    transitions = np.count_nonzero(pair.phase[1:] != pair.phase[:-1])
    print(f"{len(rows)} rows, {transitions} phase transition(s)")
    _emit(args, cfg, columns, rows)
    return 0


def cmd_sweep_strain(cfg: RunConfig, args) -> int:
    convention = EpConvention(args.ep_convention)
    system = _coupled_system(cfg)
    n0 = ep_photon_number(system, convention)
    r = sweep_strain(system, n0, args.min, args.max, args.points, log=args.log, convention=convention)
    columns = ["h", "d_exact_rad_s", "d_approx_rad_s", "linewidth_split_rad_s", "rel_err"]
    rel_error = r.rel_error
    rows = _rows(columns, r.strain, r.d_exact, r.d_approx, r.linewidth_split, rel_error)
    print(f"{len(rows)} rows at n0 = {n0:.6e}; max |d_exact - d_approx|/d_approx = {rel_error.max():.3e}")
    _emit(args, cfg, columns, rows, n0=n0)
    return 0


def cmd_sensitivity(cfg: RunConfig, args) -> int:
    curve = sensitivity_curve(
        cfg.context(),
        cfg.resonator(),
        cfg.coupling_rad_s(),
        args.fmin,
        args.fmax,
        args.points,
        half_period_cap=(args.tau_rule == "half"),
    )
    overlays = {}
    for path in args.overlay or []:
        name = os.path.basename(path)
        if not name.isprintable():  # the CSV header writes it raw, on one comment line
            raise _UsageError(f"argument --overlay: the file name {name!r} holds a character that is not printable")
        if name in overlays:
            raise _UsageError(f"argument --overlay: two overlays named {name!r}; an overlay's file name is its key")
        overlays[name] = read_overlay_csv(path)
    columns = ["frequency_hz", "observation_time_s", "h_min"]
    rows = _rows(columns, curve.gw_frequency, curve.observation_time, curve.h_min)
    print(
        f"{len(rows)} rows; floor h_min = {curve.h_min.min():.6e} "
        f"at t_max = {cfg.sensitivity_t_max_s:g} s"
    )
    _emit(args, cfg, columns, rows, overlays, overlay=sorted(overlays))
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    """Propagate the strained pair and read its peaks off the spectrum.

    The step defaults to propagate_exact's, a tenth of the fastest
    period, and is read back from the trajectory. The duration
    defaults to 100 beat periods of the predicted splitting, unrounded; an
    explicit --duration is used as given. Either way the readout pads its
    DFT to the next 5-smooth length m (dynamics._fft_length), so the
    resolution is 2 pi / (m dt). The run holds about 32 bytes per sample
    for the trajectory, and the padded readout besides.
    """
    convention = EpConvention(args.ep_convention)
    h = args.strain
    require_strain(h)
    system = _coupled_system(cfg)

    if args.photon_number is not None:
        require_nonnegative("photon_number", args.photon_number)
        n_cav = args.photon_number
    else:
        n_cav = ep_photon_number(system, convention)

    # Strain rescales both vacuum couplings g0 -> g0 (1 - 2h); in the mode
    # matrix that is exactly a photon-number rescale by (1 - 2h)^2.
    strained = system.with_photon_number(n_cav * (1.0 - 2.0 * h) ** 2)
    # The convention only picks the EP drive above. What is propagated is
    # the exact M, so the predictions and defaults come from its EQ7 pair.
    pair = eigenvalues_general(strained)
    predicted = (pair.lambda_plus.real, pair.lambda_minus.real)

    if args.duration is not None:
        duration = args.duration
    else:
        split = predicted[0] - predicted[1]
        if split <= 0.0:
            raise InvalidRangeError(
                "frequency splitting is zero (at or beyond the EP); give --duration explicitly"
            )
        duration = 100.0 * TWO_PI / split

    trajectory = propagate_exact(strained, (1.0 + 0.0j, 0.0j), duration, args.dt)
    estimate = estimate_spectrum(trajectory)

    columns = ["peak", "frequency_hz", "linewidth_hz", "predicted_hz", "resolution_hz"]
    peaks = estimate.peak_frequencies
    nearest = [min(predicted, key=lambda p: abs(p - freq)) for freq in peaks]
    hz = np.array([peaks, estimate.peak_linewidths, nearest, [estimate.resolution] * len(peaks)]) / TWO_PI
    rows = _rows(columns, np.arange(len(peaks)), *hz)
    print(
        f"{len(trajectory)} samples, dt = {trajectory.dt:.6e} s, duration = {duration:.6e} s, "
        f"n_cav = {n_cav:.6e}, strain = {h:g}"
    )
    for row in rows:
        print(
            f"peak {row[0]}: {row[1]:.6e} Hz (predicted {row[3]:.6e} Hz, "
            f"resolution {row[4]:.6e} Hz)"
        )
    _emit(args, cfg, columns, rows, photon_number=n_cav, duration=duration, dt=trajectory.dt)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _finite(name: str):
    """argparse type of a float flag: a value that is not finite is refused
    at parse, so the first such flag of argv is named, before any work runs.
    The error names the flag (argparse's prefix) and the value as ``name``,
    the quantity it sets."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} = {value!r} is not finite")
        return value

    parse.__name__ = "float"  # argparse names the type of a value float() refuses
    return parse


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (flat dotted keys)")
    common.add_argument("--output", help="output data file; omit for a dry run")
    common.add_argument("--format", choices=["csv", "json"], default=None)
    spectral_flags = argparse.ArgumentParser(add_help=False)  # every command but sensitivity
    spectral_flags.add_argument(
        "--ep-convention",
        choices=[c.value for c in EpConvention],
        default=EpConvention.EQ7.value,
        help="discriminant convention: eq7 (matrix-exact, default) or eq8 "
        "(legacy simplification, EP at half the eq7 photon number)",
    )

    parser = _Parser(prog="epgw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("ep-locate", parents=[common, spectral_flags], help="find the exceptional-point photon number")

    p = sub.add_parser("sweep-ncav", parents=[common, spectral_flags], help="eigenvalue branches vs photon number")
    p.add_argument("--min", type=_finite("n_min"), default=1e11)
    p.add_argument("--max", type=_finite("n_max"), default=5e12)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--log", action="store_true", help="log-spaced grid")

    p = sub.add_parser("sweep-strain", parents=[common, spectral_flags], help="splitting vs strain at the EP")
    p.add_argument("--min", type=_finite("h_min"), default=1e-26)
    p.add_argument("--max", type=_finite("h_max"), default=1e-20)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--log", action="store_true", help="log-spaced grid")

    p = sub.add_parser("sensitivity", parents=[common], help="minimum detectable strain vs frequency")
    p.add_argument("--fmin", type=_finite("f_min"), default=1e-7)
    p.add_argument("--fmax", type=_finite("f_max"), default=1e3)
    p.add_argument("--points", type=int, default=200)
    p.add_argument(
        "--tau-rule",
        choices=["half", "full"],
        default="half",
        help="integration-time cap: half (1/2f, default) or full (1/f) signal period",
    )
    p.add_argument(
        "--overlay",
        action="append",
        help="comparison curve CSV (frequency_hz,strain) to embed; repeatable",
    )

    p = sub.add_parser("simulate", parents=[common, spectral_flags], help="time-domain run and spectral readout")
    p.add_argument("--strain", type=_finite("h"), default=1e-4, help="applied strain h")
    p.add_argument(
        "--photon-number", type=_finite("photon_number"), default=None, help="drive photon number; default: the EP"
    )
    p.add_argument("--duration", type=_finite("duration"), default=None, help="simulated time (s)")
    p.add_argument("--dt", type=_finite("dt"), default=None, help="sample step (s)")

    return parser


_COMMANDS = {
    "ep-locate": cmd_ep_locate,
    "sweep-ncav": cmd_sweep_ncav,
    "sweep-strain": cmd_sweep_strain,
    "sensitivity": cmd_sensitivity,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, EpgwError.exit_code, 3 I/O."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except EpgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
