"""Command-line front end.

Config files are flat dotted-key text, one ``key = value`` per line with
``#`` comments. All frequencies in configs and CSV columns suffixed _hz
are plain Hz; conversion to the library's internal rad/s happens here.
Unset keys fall back to the reference device defaults, so every
subcommand runs with zero configuration.

Output files are byte-deterministic, with fixed column schemas. Each
command hands its table to _emit, the one place that checks, writes and
prints it. The header records the command, the config and every flag of
the command as the run resolved it, so a file can be replayed from it.
A renderer returns the file's UTF-8 bytes, as _emit writes them, a
block of rows at a time. CSV is its ``# key = value`` comment header,
then the table, each float cell exactly ``"%.16e" % x`` from arrays
(``_format.format_e16``, which hands a cell it cannot decide to ``%``).
JSON is one line, byte for byte what ``json.dumps(payload,
sort_keys=True)`` writes, each float cell as ``float.__repr__``
(``_format.format_repr``, which hands a cell it cannot decide to ``repr``).
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
    Phase,
    SensitivityContext,
    UnknownKeyError,
    ValidationError,
    _check,
    _LINE_END,
    _decode_utf8,
    _zero_or_normal,
    balanced_system,
    drive_amplitude_from_thickness,
    require_nonnegative,
    require_positive,
    require_strain,
)
from ._format import format_e16, format_repr
from .dynamics import _mode_1_spectrum
from .sensitivity import read_overlay_csv, sensitivity_curve
from .spectral import (
    _arms,
    _pair,
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

    Lines end at ``core._LINE_END``, so a form feed or U+2028 ends none.
    Later lines win over earlier ones. Every value must be finite and
    within its range, 0 or a normal double, and 2 pi times each ``_hz``
    value must be finite; ``coupling.j_hz = 0`` is valid (decoupled modes).

    Raises:
        ConfigParseError, UnknownKeyError: malformed input.
        ValidationError: any value out of range or not finite, named by
            its key as written.
    """
    values = {}
    for line_no, raw in enumerate(_LINE_END.split(text), start=1):
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
        err = _check(key, value, None, key in _MAY_BE_ZERO)
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
    if path is None:
        return parse_config_text("")
    with open(path, "rb") as fh:
        return parse_config_text(_decode_utf8(fh.read()))


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------


# The rows a block formats at once: enough to spread numpy's per-call cost
# (a repr cell took 137 ns in 2048-row blocks, 114 ns in 4096-row ones),
# few enough that a block's cell matrices stay under a MB.
_BLOCK_ROWS = 4096


def _csv_cells(column: np.ndarray) -> np.ndarray:
    """A column's cells as a (len(column), width) uint8 matrix, NUL-padded:
    a float as %.16e, an integer or a byte string as %s writes the int or
    the decoded text."""
    if column.dtype.kind == "f":
        return format_e16(column)
    return column.astype("S").view(np.uint8).reshape(len(column), -1)


def _json_cells(column: np.ndarray) -> np.ndarray:
    """A column's cells as json.dumps writes them: a float as repr, an
    integer as its digits, a byte string (a phase value, which needs no
    escape) in quotes."""
    if column.dtype.kind == "S":
        column = b'"' + column + b'"'
    return format_repr(column) if column.dtype.kind == "f" else _csv_cells(column)


def _table_rows(table: dict) -> np.ndarray:
    """The table as a renderer's rows: a structured array, one field per
    column, with a Phase column (the one object column) as the bytes of
    each value: an object field took 17 ms to build at 100k rows, half as
    long as the table took to format (numpy 2.4, 2-core Xeon)."""
    columns = list(table.values())
    for k, column in enumerate(columns):
        if column.dtype.kind == "O":
            columns[k] = np.zeros(len(column), f"S{max(len(phase.value) for phase in Phase)}")
            for phase in Phase:
                columns[k][column == phase] = phase.value
    return np.rec.fromarrays(columns, names=list(table))


def _blocks(columns: list[np.ndarray], cells, start: bytes, separator: bytes, end: bytes) -> list[bytes]:
    """A table's rows as the file's bytes, _BLOCK_ROWS at a time: each row
    its cells, as ``cells`` writes them, after start, between separators
    and before end. A block's cells and separators are one byte matrix."""
    blocks = []
    for first in range(0, len(columns[0]), _BLOCK_ROWS):
        parts = [cells(column[first : first + _BLOCK_ROWS]) for column in columns]
        rows = len(parts[0])
        fill = [np.broadcast_to(np.frombuffer(text, np.uint8), (rows, len(text))) for text in (start, separator, end)]
        matrix = [fill[0], *[cell for part in parts for cell in (part, fill[1])][:-1], fill[2]]
        blocks.append(np.concatenate(matrix, axis=1).tobytes().translate(None, b"\0"))
    return blocks


def render_csv(
    cfg: RunConfig,
    command: str,
    flags: dict,
    columns: list[str],
    rows: np.ndarray,
    overlays: dict[str, np.ndarray] | None = None,
) -> list[bytes]:
    """The file's bytes a block at a time: the table under its ``# key =
    value`` header, ``rows`` a structured array with one field per column,
    then each overlay by sorted name, an (n, 2) (frequency_hz, strain) array."""
    header = [f"# command = {command}"]
    header += [f"# {line}" for line in cfg.to_text().splitlines()]
    header += [f"# flag.{name} = {flags[name]!r}" for name in sorted(flags)]
    out = ["\n".join([*header, ",".join(columns), ""]).encode()]
    out += _blocks([rows[name] for name in columns], _csv_cells, b"", b",", b"\n")
    for name in sorted(overlays or {}):
        out.append(f"# overlay = {name}\nfrequency_hz,strain\n".encode())
        out += _blocks(list(overlays[name].T), _csv_cells, b"", b",", b"\n")
    return out


def _json_list(columns: list[np.ndarray]) -> list[bytes]:
    """A table's rows as the parts of one JSON list of lists."""
    blocks = _blocks(columns, _json_cells, b"[", b", ", b"], ")
    if blocks:
        blocks[-1] = blocks[-1][:-2]  # the last row's ", "
    return [b"[", *blocks, b"]"]


def render_json(
    cfg: RunConfig,
    command: str,
    flags: dict,
    columns: list[str],
    rows: np.ndarray,
    overlays: dict[str, np.ndarray] | None = None,
) -> list[bytes]:
    """The file's bytes a block at a time: the payload on one line, as
    ``json.dumps(payload, sort_keys=True)`` writes it, floats as repr and a
    phase as its value. ``rows`` and ``overlays`` are as render_csv takes
    them; the tables, the last two keys in sorted order, are written from
    arrays after json.dumps writes the other keys. A NaN or inf cell raises
    ValueError, as json.dumps does."""
    head = {
        "command": command,
        "config": {key: getattr(cfg, attr) for key, attr in _ATTR.items()},
        "flags": flags,
        "columns": columns,
    }
    names = sorted(overlays or {})
    floats = [overlays[name] for name in names] + [rows[name] for name in columns if rows[name].dtype.kind == "f"]
    if not all(np.isfinite(cells).all() for cells in floats):
        raise ValueError("Out of range float values are not JSON compliant")
    out = [json.dumps(head, sort_keys=True, allow_nan=False)[:-1].encode()]
    if names:
        out.append(b', "overlays": {')
        for k, name in enumerate(names):
            out += [b", " * bool(k), json.dumps(name).encode(), b": ", *_json_list(list(overlays[name].T))]
        out.append(b"}")
    out += [b', "rows": ', *_json_list([rows[name] for name in columns]), b"}\n"]
    return out


# The options that name the run's files rather than the run, and the handler.
_NOT_FLAGS = {"command", "config", "output", "format", "run"}


def _emit(args, cfg, table: dict, summary: str, overlays=None, **resolved) -> int:
    """The one place that checks, writes and prints a command's table: its
    column names mapped to equal-length arrays. Returns exit code 0.

    A float cell that core._zero_or_normal refuses (NaN, inf or subnormal)
    raises InvalidRangeError, named by its column and value. The table goes
    to --output, if given, in --format (json for ep-locate, else csv),
    under a header that replays the run: the command, the config, and the
    parsed flags but the file options, updated by ``resolved``, the values
    the command derived (simulate's photon number, duration and dt,
    sweep-strain's n0, the overlay names). The summary is printed last, so
    a run that fails prints nothing on stdout."""
    for name, column in table.items():
        refused = column[~_zero_or_normal(column)] if column.dtype.kind == "f" else ()
        if len(refused):
            raise InvalidRangeError(f"{name} = {refused[0].item()!r}: a written cell must be 0 or a normal double")
    if args.output is not None:
        flags = {name: value for name, value in vars(args).items() if name not in _NOT_FLAGS}
        flags.update(resolved)
        fmt = args.format or ("json" if args.command == "ep-locate" else "csv")
        rows = _table_rows(table)
        chunks = (render_csv if fmt == "csv" else render_json)(cfg, args.command, flags, list(table), rows, overlays)
        with open(args.output, "wb") as fh:
            fh.writelines(chunks)
        summary += f"\nwrote {args.output} ({fmt}, {len(rows)} rows)"
    print(summary)
    return 0


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
    system = cfg.system()
    n0 = ep_photon_number(system)
    arm_1, arm_2 = _arms(system)
    g0, phi = arm_1.g0, arm_1.phi
    gamma_1, gamma_2 = arm_1.damping(n0), arm_2.damping(n0)
    pair = eigenvalues_general(system.with_photon_number(n0))
    summary = (
        f"n0 = {n0:.6e}\n"
        f"g0 = {g0:.6e} rad/s ({g0 / TWO_PI:.6e} Hz)\n"
        f"phi = {phi:.6e} s  (arm 1, blue-detuned)\n"
        f"gamma_1 = {gamma_1:.6e} rad/s\n"
        f"gamma_2 = {gamma_2:.6e} rad/s\n"
        f"phase at n0 = {pair.phase.value}"
    )
    cells = {"n0": n0, "g0_rad_s": g0, "phi_s": phi, "gamma_1_rad_s": gamma_1, "gamma_2_rad_s": gamma_2}
    return _emit(args, cfg, {name: np.array([cell]) for name, cell in cells.items()}, summary)


def cmd_sweep_ncav(cfg: RunConfig, args) -> int:
    grid, pair = sweep_photon_number(_coupled_system(cfg), args.min, args.max, args.points, log=args.log)
    table = {
        "n_cav": grid,
        "re_plus_hz": pair.lambda_plus.real / TWO_PI,
        "re_minus_hz": pair.lambda_minus.real / TWO_PI,
        "im_plus_hz": pair.lambda_plus.imag / TWO_PI,
        "im_minus_hz": pair.lambda_minus.imag / TWO_PI,
        "phase": pair.phase,
    }
    transitions = np.count_nonzero(pair.phase[1:] != pair.phase[:-1])
    return _emit(args, cfg, table, f"{len(grid)} rows, {transitions} phase transition(s)")


def cmd_sweep_strain(cfg: RunConfig, args) -> int:
    system = _coupled_system(cfg)
    n0 = ep_photon_number(system)
    r = sweep_strain(system, n0, args.min, args.max, args.points, log=args.log)
    rel_error = r.rel_error
    table = {
        "h": r.strain,
        "d_exact_rad_s": r.d_exact,
        "d_approx_rad_s": r.d_approx,
        "linewidth_split_rad_s": r.linewidth_split,
        "rel_err": rel_error,
    }
    summary = f"{len(rel_error)} rows at n0 = {n0:.6e}; max |d_exact - d_approx|/d_approx = {rel_error.max():.3e}"
    return _emit(args, cfg, table, summary, n0=n0)


def cmd_sensitivity(cfg: RunConfig, args) -> int:
    curve = sensitivity_curve(
        cfg.context(),
        cfg.resonator(),
        _coupled_system(cfg).coupling_j,
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
    h_min = curve.h_min
    table = {"frequency_hz": curve.gw_frequency, "observation_time_s": curve.observation_time, "h_min": h_min}
    summary = f"{len(h_min)} rows; floor h_min = {h_min.min():.6e} at t_max = {cfg.sensitivity_t_max_s:g} s"
    return _emit(args, cfg, table, summary, overlays, overlay=sorted(overlays))


def cmd_simulate(cfg: RunConfig, args) -> int:
    """Propagate the strained pair and read its peaks off the spectrum.

    The step defaults to propagate_exact's, a tenth of the fastest period, and
    is read back from the readout. The duration defaults to 100 beat periods of
    the predicted splitting, unrounded; an explicit --duration is used as given.
    Either way the readout pads its DFT to the next 5-smooth length m
    (dynamics._fft_length), so the resolution is 2 pi / (m dt). No trajectory
    is made: mode 1 goes straight into the padded DFT; with the FFT's own
    scratch the run peaks at about 48 bytes per padded bin.
    """
    h = args.strain
    require_strain(h)
    system = _coupled_system(cfg)

    if args.photon_number is not None:
        require_nonnegative("photon_number", args.photon_number)
        n_cav = args.photon_number
    else:
        n_cav = ep_photon_number(system)

    # Strain rescales both vacuum couplings g0 -> g0 (1 - 2h); in the mode
    # matrix that is exactly a photon-number rescale by (1 - 2h)^2, on the same arms.
    n_strained = n_cav * (1.0 - 2.0 * h) ** 2
    center, root, _ = _pair(_arms(system), system.coupling_j, n_strained, n_strained)
    predicted = ((center + root).real, (center - root).real)
    strained = system.with_photon_number(n_strained)

    if args.duration is not None:
        duration = args.duration
    else:
        split = predicted[0] - predicted[1]
        if split <= 0.0:
            raise InvalidRangeError(
                "frequency splitting is zero (at or beyond the EP); give --duration explicitly"
            )
        duration = 100.0 * TWO_PI / split

    estimate, samples, dt = _mode_1_spectrum(strained, (1.0 + 0.0j, 0.0j), duration, args.dt)

    peaks = estimate.peak_frequencies
    table = {
        "peak": np.arange(len(peaks)),
        "frequency_hz": np.array(peaks) / TWO_PI,
        "linewidth_hz": np.array(estimate.peak_linewidths) / TWO_PI,
        "predicted_hz": np.array([min(predicted, key=lambda p: abs(p - freq)) for freq in peaks]) / TWO_PI,
        "resolution_hz": np.full(len(peaks), estimate.resolution / TWO_PI),
    }
    summary = (
        f"{samples} samples, dt = {dt:.6e} s, duration = {duration:.6e} s, "
        f"n_cav = {n_cav:.6e}, strain = {h:g}"
    )
    for peak, freq, _, near, res in zip(*table.values()):
        summary += f"\npeak {peak}: {freq:.6e} Hz (predicted {near:.6e} Hz, resolution {res:.6e} Hz)"
    return _emit(args, cfg, table, summary, photon_number=n_cav, duration=duration, dt=dt)


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

    parser = _Parser(prog="epgw", description="Exceptional-point optomechanical strain sensor simulator.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ep-locate", parents=[common], help="find the exceptional-point photon number")
    p.set_defaults(run=cmd_ep_locate)

    # the two sweeps: (name, handler, the quantity the grid sets, --min, --max, --points, help)
    for name, run, quantity, lo, hi, points, help_text in (
        ("sweep-ncav", cmd_sweep_ncav, "n", 1e11, 5e12, 500, "eigenvalue branches vs photon number"),
        ("sweep-strain", cmd_sweep_strain, "h", 1e-26, 1e-20, 100, "splitting vs strain at the EP"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--min", type=_finite(f"{quantity}_min"), default=lo)
        p.add_argument("--max", type=_finite(f"{quantity}_max"), default=hi)
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--log", action="store_true", help="log-spaced grid")

    p = sub.add_parser("sensitivity", parents=[common], help="minimum detectable strain vs frequency")
    p.set_defaults(run=cmd_sensitivity)
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

    p = sub.add_parser("simulate", parents=[common], help="time-domain run and spectral readout")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--strain", type=_finite("h"), default=1e-4, help="applied strain h")
    p.add_argument(
        "--photon-number", type=_finite("photon_number"), default=None, help="drive photon number; default: the EP"
    )
    p.add_argument("--duration", type=_finite("duration"), default=None, help="simulated time (s)")
    p.add_argument("--dt", type=_finite("dt"), default=None, help="sample step (s)")

    return parser


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, EpgwError.exit_code, 3 I/O."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config)
        return args.run(cfg, args)
    except (EpgwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, EpgwError) else 3


if __name__ == "__main__":
    sys.exit(main())
