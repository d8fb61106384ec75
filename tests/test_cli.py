import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epgw import ConfigParseError, UnknownKeyError, ValidationError, eigenvalues_general, min_detectable_strain
from epgw.cli import CONFIG_DEFAULTS, RunConfig, build_parser, parse_config, parse_config_text

TWO_PI = 2.0 * math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def _stdout_float(out, key):
    match = re.search(rf"{re.escape(key)} = ([-+0-9.eE]+)", out)
    assert match is not None, f"{key!r} not found in output:\n{out}"
    return float(match.group(1))


# ---------------------------------------------------------------------------
# config layer
# ---------------------------------------------------------------------------


def test_defaults_describe_reference_device():
    cfg = parse_config(None)
    assert cfg.resonator_frequency_hz == 1e9
    assert cfg.resonator_mass_kg == 5.3e-15
    assert cfg.coupling_j_hz == 1e7
    assert cfg.sensitivity_t_max_s == 3600.0
    assert cfg.coupling_rad_s() == TWO_PI * 1e7
    # every setting has a value: no field is unset
    assert [type(field.default) for field in dataclasses.fields(RunConfig)] == [float] * 10


def test_config_round_trip():
    cfg = parse_config(None)
    assert parse_config_text(cfg.to_text()) == cfg
    tweaked = parse_config_text("coupling.j_hz = 2.5e7\nnoise.temperature_k = 4.2\n")
    assert parse_config_text(tweaked.to_text()) == tweaked


def test_config_file_with_comments(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# reference run\n"
        "resonator.frequency_hz = 2e9  # doubled\n"
        "\n"
        "coupling.j_hz = 5e6\n"
    )
    cfg = parse_config(str(path))
    assert cfg.resonator_frequency_hz == 2e9
    assert cfg.coupling_j_hz == 5e6
    assert cfg.resonator_mass_kg == 5.3e-15  # untouched default


def test_overrides_win_over_file(run_cli, tmp_path):
    # a later config line wins over an earlier one; the header records the
    # value used
    assert parse_config_text("coupling.j_hz = 5e6\ncoupling.j_hz = 7e6\n").coupling_j_hz == 7e6
    path = tmp_path / "run.conf"
    path.write_text("sensitivity.t_max_s = 3600\nsensitivity.t_max_s = 36\n")
    out = tmp_path / "floor.csv"
    code, _, _ = run_cli("sensitivity", "--points", "5", "--config", str(path), "--output", str(out))
    assert code == 0
    assert "# sensitivity.t_max_s = 36.0\n" in out.read_text()


def test_unknown_keys_rejected():
    with pytest.raises(UnknownKeyError):
        parse_config_text("resonator.bogus = 1\n")
    with pytest.raises(UnknownKeyError):
        parse_config_text("coupling.j_hz = 1e7\ncoupling.bogus = 1\n")
    # the integration time is sensitivity.t_max_s alone
    with pytest.raises(UnknownKeyError):
        parse_config_text("noise.sample_time_s = 1.0\n")
    # the drive is simulate's --photon-number, or else the located EP
    with pytest.raises(UnknownKeyError):
        parse_config_text("drive.photon_number = 1e12\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigParseError) as info:
        parse_config_text("coupling.j_hz = 1e7\nnot a key value pair\n")
    assert info.value.line == 2
    with pytest.raises(ConfigParseError) as info:
        parse_config_text("coupling.j_hz =\n")
    assert info.value.line == 1
    with pytest.raises(ConfigParseError) as info:
        parse_config_text("\n\ncoupling.j_hz = fast\n")
    assert info.value.line == 3


def test_validation_rejects_nonpositive_fields():
    with pytest.raises(ValidationError):
        parse_config_text("resonator.mass_kg = -1\n")
    with pytest.raises(ValidationError):
        parse_config_text("noise.temperature_k = 0\n")
    with pytest.raises(ValidationError):
        parse_config_text("coupling.j_hz = -1e7\n")


@pytest.mark.parametrize("key", sorted(CONFIG_DEFAULTS))
def test_each_config_value_is_checked_once_under_its_key(key):
    # zero is valid only where the model allows it; a bad value is named by
    # its key as written, once, not by the fields derived from it
    may_be_zero = key in ("resonator.gamma_m_hz", "coupling.j_hz")
    for value in (0.0, -1.0, math.nan):
        text = f"{key} = {value!r}\n"
        if value == 0.0 and may_be_zero:
            assert parse_config_text(text) is not None
            continue
        with pytest.raises(ValidationError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(f"1 invalid parameter(s): {key} = {value!r} ")


@pytest.mark.parametrize(
    "key, command",
    [
        ("resonator.frequency_hz", "ep-locate"),
        ("resonator.gamma_m_hz", "ep-locate"),
        ("cavity.decay_rate_hz", "ep-locate"),
        ("coupling.j_hz", "ep-locate"),
        ("coupling.j_hz", "sensitivity"),
    ],
)
def test_hz_value_whose_rad_s_overflows_is_named_by_its_key(run_cli, tmp_path, key, command):
    # 1e308 Hz is finite but 2 pi times it is not: the error names the key
    # as written, once, and none of the rad/s fields derived from it
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = 1e308\n")
    out = tmp_path / "out.dat"
    code, _, err = run_cli(command, "--config", str(conf), "--output", str(out))
    assert code == 1 and not out.exists()
    assert err.startswith("error: 1 invalid parameter(s): ") and err.count(f"{key} = 1e+308") == 1
    assert [name for name in ("omega_m", "detuning", "kappa", "gamma_m", "coupling_j") if f"{name} =" in err] == []


def test_zero_coupling_survives_config_validation():
    cfg = parse_config_text("coupling.j_hz = 0\n")
    assert cfg.coupling_j_hz == 0.0


def test_serialization_order_is_canonical():
    text = RunConfig().to_text()
    keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
    assert keys == list(CONFIG_DEFAULTS)


def test_readme_tables_match_the_parser_and_config():
    text = README.read_text(encoding="utf-8")
    # the config table: every key once, with the RunConfig default
    section = text.split("### Config file", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` +\| `([^`]*)` +\|", section, flags=re.M)
    documented = {key: float(value) for key, value in rows}
    assert len(rows) == len(documented)
    assert documented == CONFIG_DEFAULTS
    # the command table: every subcommand's own flags, each `--flag value`
    # at the parser default; a placeholder (T, FILE) means no default
    section = text.split("## CLI", 1)[1].split("### Config file", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` +\|[^|]*\|(.*)\|$", section, flags=re.M)
    commands = next(action for action in build_parser()._actions if action.dest == "command").choices
    options = {name: {o: a for a in sub._actions for o in a.option_strings} for name, sub in commands.items()}
    assert [command for command, _ in rows] == list(commands)
    for command, cell in rows:
        flags = dict(re.findall(r"(--[a-z-]+)(?: ([^-\s`][^\s`]*))?", cell))
        assert set(flags) == set(options[command]) - set(options["ep-locate"]), command
        for flag, value in flags.items():
            action = options[command][flag]
            if not value:
                assert action.nargs == 0 and action.default is False, flag
            elif value.startswith("{"):
                assert value == "{" + ",".join(action.choices) + "}" and action.default in action.choices, flag
            elif value.isupper():
                assert action.default is None, flag
            else:
                assert float(value) == action.default, flag


# Every setting is read: one alternative value per config key and per flag
# of each command, with a command whose data rows (the lines without '#')
# it must change. A key or flag that no command reads fails here.
SMALL_RUN = {
    "ep-locate": [],
    "sweep-ncav": ["--points", "5"],
    "sweep-strain": ["--points", "5"],
    "sensitivity": ["--points", "5"],
    "simulate": ["--duration", "2e-7"],
}
KEY_READERS = {
    "resonator.frequency_hz": (2e9, "ep-locate"),
    "resonator.mass_kg": (1e-14, "ep-locate"),
    "resonator.thickness_m": (1e-7, "sensitivity"),
    "resonator.quality_factor": (1e6, "sensitivity"),
    "resonator.gamma_m_hz": (1e3, "ep-locate"),
    "cavity.length_m": (2e-4, "ep-locate"),
    "cavity.decay_rate_hz": (2e8, "ep-locate"),
    "coupling.j_hz": (2e7, "ep-locate"),
    "noise.temperature_k": (4.0, "sensitivity"),
    "sensitivity.t_max_s": (36.0, "sensitivity"),
}
# (command, flag): its alternative value; None for a switch, FILE for a path
FLAG_VALUES = {
    ("ep-locate", "--ep-convention"): "eq8",
    ("sweep-ncav", "--ep-convention"): "eq8",
    ("sweep-ncav", "--min"): "2e11",
    ("sweep-ncav", "--max"): "4e12",
    ("sweep-ncav", "--points"): "6",
    ("sweep-ncav", "--log"): None,
    ("sweep-strain", "--ep-convention"): "eq8",
    ("sweep-strain", "--min"): "1e-25",
    ("sweep-strain", "--max"): "1e-21",
    ("sweep-strain", "--points"): "6",
    ("sweep-strain", "--log"): None,
    ("sensitivity", "--fmin"): "1e-6",
    ("sensitivity", "--fmax"): "1e2",
    ("sensitivity", "--points"): "6",
    ("sensitivity", "--tau-rule"): "full",
    ("sensitivity", "--overlay"): "FILE",
    ("simulate", "--ep-convention"): "eq8",
    ("simulate", "--strain"): "2e-4",
    ("simulate", "--photon-number"): "1e12",
    ("simulate", "--duration"): "3e-7",
    ("simulate", "--dt"): "1e-11",
}
# The one setting that moves only a header line: at the EP of a balanced
# pair (every config is one) the strained splitting is J^2 (1 - (1 - 2h)^4)
# under either convention, bit for bit, so the convention moves only the n0
# that the sweep runs at, which the header records.
HEADER_ONLY = {("sweep-strain", "--ep-convention"): "# flag.n0 = "}
# the options every command takes to read and write files
FILE_OPTIONS = {"-h", "--help", "--config", "--output", "--format"}


def test_every_setting_has_a_reader():
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert {key.replace(".", "_", 1) for key in KEY_READERS} == fields
    commands = next(action for action in build_parser()._actions if action.dest == "command").choices
    options = {
        (name, option)
        for name, sub in commands.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in FILE_OPTIONS
    }
    assert set(FLAG_VALUES) == options


@pytest.mark.parametrize(
    "command, config, flags, header",
    [pytest.param(command, f"{key} = {value!r}\n", [], None, id=key) for key, (value, command) in KEY_READERS.items()]
    + [
        pytest.param(
            command, "", [flag] + ([value] if value else []), HEADER_ONLY.get((command, flag)), id=f"{command} {flag}"
        )
        for (command, flag), value in FLAG_VALUES.items()
    ],
)
def test_every_setting_changes_the_data_rows(run_cli, tmp_path, command, config, flags, header):
    overlay = tmp_path / "reference.csv"
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n")
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    flags = [str(overlay) if word == "FILE" else word for word in flags]
    rows, headers = [], []
    for extra in ([], ["--config", str(conf), *flags]):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(command, *SMALL_RUN[command], *extra, "--format", "csv", "--output", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        rows.append([line for line in lines if not line.startswith("#")])
        headers.append([line for line in lines if header and line.startswith(header)])
    if header is None:
        assert rows[0] != rows[1]
    else:
        assert rows[0] == rows[1]
        assert headers[0] != headers[1]


# ---------------------------------------------------------------------------
# subcommands: happy paths
# ---------------------------------------------------------------------------


def test_ep_locate_reports_reference_photon_number(run_cli):
    code, out, err = run_cli("ep-locate")
    assert code == 0
    assert err == ""
    n0 = _stdout_float(out, "n0")
    assert 1.33e12 <= n0 <= 1.63e12
    assert "phase at n0 = exceptional_point" in out


def test_ep_locate_eq8_halves_the_threshold(run_cli):
    _, out7, _ = run_cli("ep-locate")
    code, out8, _ = run_cli("ep-locate", "--ep-convention", "eq8")
    assert code == 0
    ratio = _stdout_float(out8, "n0") / _stdout_float(out7, "n0")
    assert ratio == pytest.approx(0.5, rel=1e-5)


def test_sweep_ncav_crosses_one_transition(run_cli):
    code, out, _ = run_cli("sweep-ncav", "--points", "400")
    assert code == 0
    assert "400 rows, 1 phase transition(s)" in out


def test_sweep_strain_matches_square_root_law(run_cli):
    code, out, _ = run_cli("sweep-strain", "--log", "--points", "40")
    assert code == 0
    worst = _stdout_float(out, "max |d_exact - d_approx|/d_approx")
    assert worst < 1e-10


def test_sensitivity_reports_floor(run_cli):
    code, out, _ = run_cli("sensitivity", "--points", "50")
    assert code == 0
    floor = _stdout_float(out, "floor h_min")
    assert floor == pytest.approx(2.4211684e-28, rel=1e-5)


def test_sensitivity_tmax_override_scales_floor(run_cli, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("sensitivity.t_max_s = 36\n")
    code, out, _ = run_cli("sensitivity", "--points", "50", "--config", str(conf))
    assert code == 0
    floor = _stdout_float(out, "floor h_min")
    assert floor == pytest.approx(2.4211684e-26, rel=1e-5)


@pytest.mark.parametrize("config", ["", "sensitivity.t_max_s = 36.0\n"], ids=["default", "t_max_36"])
def test_sensitivity_floor_is_the_config_context_floor(run_cli, tmp_path, config):
    # sensitivity.t_max_s is the context's one integration time: the first
    # point lies below the knee, where the floor is min_detectable_strain
    # of cfg.context() as it stands, bit for bit
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    out = tmp_path / "floor.csv"
    code, _, _ = run_cli("sensitivity", "--points", "5", "--config", str(conf), "--output", str(out))
    assert code == 0
    cfg = parse_config_text(config)
    rows = [line.split(",") for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert float(rows[0][2]) == min_detectable_strain(cfg.context(), cfg.resonator(), cfg.coupling_rad_s())


@pytest.mark.parametrize(
    "config, flags, cap",
    [
        ("sensitivity.t_max_s = 1e-300\nnoise.temperature_k = 1e40\n", [], "the integration time 1e-300 s"),
        ("", ["--fmax", "1e308"], "f_max = 1e+308"),
    ],
    ids=["integration-time", "half-period"],
)
def test_sensitivity_overflow_names_the_cap_that_set_tau(run_cli, tmp_path, config, flags, cap):
    # the strain floor overflows where tau is shortest, at f_max; the error
    # blames f_max only when the half-period cap set tau there
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    code, _, err = run_cli("sensitivity", "--points", "5", "--config", str(conf), *flags)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert cap in err
    assert ("f_max" in err) == ("--fmax" in flags)


def test_sensitivity_floor_is_checked_at_the_taus_the_grid_uses(run_cli, tmp_path):
    # at T = 1e-278 K the floor underflows at t_max = 3600 s, but a grid
    # above the knee integrates for at most 1/(2 f_min) = 5e-3 s
    conf = tmp_path / "run.conf"
    conf.write_text("noise.temperature_k = 1e-278\n")
    out = tmp_path / "sens.csv"
    code, _, _ = run_cli(
        "sensitivity", "--fmin", "1e2", "--fmax", "1e3", "--points", "3", "--config", str(conf), "--output", str(out)
    )
    assert code == 0
    rows = [[float(cell) for cell in line.split(",")] for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert len(rows) == 3 and rows[0][1] == 5e-3 and rows[-1][1] == 5e-4
    assert all(row[2] >= sys.float_info.min for row in rows)


def test_simulate_below_threshold_resolves_two_peaks(run_cli, tmp_path):
    path = tmp_path / "sim.csv"
    code, out, _ = run_cli(
        "simulate", "--photon-number", "7.0313629496777e11", "--strain", "0", "--output", str(path)
    )
    assert code == 0
    assert "peak 0:" in out
    assert "peak 1:" in out
    # the default duration is 100 beat periods as computed, 58,236 samples;
    # the readout pads them to 58,320 = 2^4 3^6 5, the next length with no
    # prime factor above 5, which sets the resolution
    assert out.startswith("58236 samples,")
    pair = eigenvalues_general(parse_config(None).system().with_photon_number(7.0313629496777e11))
    text = path.read_text()
    duration = float(re.search(r"^# flag\.duration = (.*)$", text, flags=re.M).group(1))
    assert duration == 100.0 * TWO_PI / (pair.lambda_plus.real - pair.lambda_minus.real)
    dt = float(re.search(r"^# flag\.dt = (.*)$", text, flags=re.M).group(1))
    rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
    for row in rows:
        assert float(row[4]) == pytest.approx(1.0 / (58320 * dt), rel=1e-15)


def test_simulate_eq8_drives_at_its_ep_and_predicts_the_exact_peaks(run_cli, tmp_path):
    # the convention picks only the drive, at the eq8 EP; the propagated
    # matrix is exact, so its eq7 pair sets the defaults and the predictions
    path = tmp_path / "sim.csv"
    code, out, _ = run_cli("simulate", "--ep-convention", "eq8", "--output", str(path))
    assert code == 0
    _, n0_out, _ = run_cli("ep-locate", "--ep-convention", "eq8")
    assert _stdout_float(out, "n_cav") == pytest.approx(_stdout_float(n0_out, "n0"), rel=1e-6)
    rows = [line.split(",") for line in path.read_text().splitlines() if line[:1].isdigit()]
    assert len(rows) == 2
    for _, freq, _, predicted, resolution in rows:
        assert abs(float(freq) - float(predicted)) < 0.1 * float(resolution)


# ---------------------------------------------------------------------------
# subcommands: output files
# ---------------------------------------------------------------------------


def test_runs_are_byte_deterministic(run_cli, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run_cli("sweep-ncav", "--points", "50", "--output", str(a))
    assert code == 0
    assert f"wrote {a} (csv, 50 rows)" in out
    assert run_cli("sweep-ncav", "--points", "50", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()

    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("ep-locate", "--output", str(ja))[0] == 0
    assert run_cli("ep-locate", "--output", str(jb))[0] == 0
    assert ja.read_bytes() == jb.read_bytes()


# sha256 of each subcommand's output file at its default size, and of the
# JSON renderer on a sweep and on embedded overlays. They pin the bytes
# across implementations: a change that moves one last digit fails here.
# Recorded on x86-64 Linux with CPython 3.11 and numpy 2.4; the simulate
# digest also rests on numpy's FFT and matrix product.
# The simulate digest was re-recorded when its default duration took the
# next 5-smooth sample count (1,769,472, was 1,768,533): flag.duration,
# both peaks, both linewidths and the resolution moved. It was re-recorded
# again when the propagator took its phases from two tables (dynamics._phases):
# only the two linewidth cells moved, by about 1e-13 relative.
# All eight were re-recorded when the config key noise.sample_time_s, which
# no command read, was deleted: each file lost that one header line (CSV
# "# noise.sample_time_s = 1.0", JSON "noise.sample_time_s": 1.0,) and no
# other byte moved.
# The three JSON digests were re-recorded when render_json became one
# json.dumps call, compact instead of indent 2. Only whitespace moved:
# JSON_VALUE keeps their old digests, of the value re-serialized at indent 2.
# The simulate digest was re-recorded when the readout took over the 5-smooth
# rule, zero-padding its DFT to the next 5-smooth length m, and the default
# duration became the plain 100 beats: 1,768,533 samples (was 1,769,472),
# padded to the same m, so the resolution cell kept every digit.
# flag.duration moved to the unrounded 100 beats, both peaks moved by about
# 1e-10 relative (each still 0.011 and 0.014 resolutions from its
# prediction), and both linewidths by about 6e-4 relative.
# The three JSON digests, and their JSON_VALUE, were re-recorded when the
# config key drive.photon_number was deleted: each config object lost its
# "drive.photon_number": null entry, and putting it back gives the old
# digests. A CSV header never wrote the unset key, so no CSV byte moved.
GOLDEN = {
    "ep-locate": "39ffe776d7aa9e080ff423bcabfb9b3e1cf0509f37b9f9c127358fd7668c06a5",
    "sweep-ncav": "9bc099c8a8923426cfca1f86d06c9631e26f4e6276e01b51374ce31fe2cff223",
    "sweep-ncav-json": "beafd869c2d21bf2204249258f37651c302842d740762bf2d4c3c5a518e52c0c",
    "sweep-strain": "9d7acf1f1b12b19da5bd45fdfac3c107977950682a1c256e12d46847793fc63f",
    "sensitivity": "287dcc8329400dd7d7267196611322235e23293cf9bf7d2dcdca450c96bf8708",
    "simulate": "7346a20eb67b3e3c5ae2757ab9df1f2a4a9bed7d94073652671d2cd667174411",
    "sensitivity-overlay-json": "c27f3379ff397024a626362b644622db4570ee397ffee3e9ad638cb644212151",
    "sensitivity-overlay-csv": "b9873cd0a8cf659ca419c00889abfe64c034335332d05e86e38b59f4fc717f6b",
}
JSON_VALUE = {
    "ep-locate": "d08439aefdd6e9faecb3604d7fefda7162cad025631cf8b0a2647758a7825371",
    "sweep-ncav-json": "a2a0ca2c865cebe3f8c004b37093bfed1216756bcfef3aed515ae568ca8e2a32",
    "sensitivity-overlay-json": "f054b2be15c1c683eab8eb1c3092cebad3038e9c15b9e8353bb804a4a6348b3e",
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("ep-locate", ["ep-locate"]),
        ("sweep-ncav", ["sweep-ncav"]),
        ("sweep-ncav-json", ["sweep-ncav", "--format", "json"]),
        ("sweep-strain", ["sweep-strain"]),
        ("sensitivity", ["sensitivity"]),
        ("simulate", ["simulate"]),
        ("sensitivity-overlay-json", ["sensitivity", "--format", "json", "--overlay"]),
        ("sensitivity-overlay-csv", ["sensitivity", "--overlay"]),
    ],
)
def test_output_bytes_match_golden_digest(run_cli, tmp_path, name, argv):
    if argv[-1] == "--overlay":
        overlay = tmp_path / "reference.csv"
        overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n")
        argv = argv + [str(overlay)]
    out = tmp_path / f"{name}.out"
    assert run_cli(*argv, "--output", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    if name in JSON_VALUE:
        text = out.read_text()
        value = json.loads(text)
        assert text == json.dumps(value, sort_keys=True) + "\n"
        pretty = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(pretty.encode()).hexdigest() == JSON_VALUE[name]


def _header(path):
    """(format, command, config, flags) as the file at ``path`` records them."""
    text = path.read_text()
    if text.startswith("{"):
        payload = json.loads(text)
        return "json", payload["command"], payload["config"], payload["flags"]
    config, flags = {}, {}
    for line in text.splitlines():
        key, _, value = line.removeprefix("# ").partition(" = ")
        if not line.startswith("# ") or key == "overlay":  # the table, or an overlay's name
            continue
        if key == "command":
            command = value
        elif key.startswith("flag."):
            flags[key.removeprefix("flag.")] = ast.literal_eval(value)
        else:
            config[key] = float(value)
    return "csv", command, config, flags


@pytest.mark.parametrize(
    "argv, config",
    [
        (["ep-locate", "--ep-convention", "eq8"], ""),
        (["ep-locate", "--format", "csv"], "coupling.j_hz = 2e7\n"),
        (["sweep-ncav", "--log"], ""),
        (["sweep-ncav", "--format", "json", "--points", "7"], "cavity.length_m = 2e-4\n"),
        (["sweep-strain", "--ep-convention", "eq8"], ""),
        (["sensitivity", "--tau-rule", "full", "--overlay", "OVERLAY"], ""),
        (["sensitivity", "--format", "json", "--points", "9", "--overlay", "OVERLAY"], "noise.temperature_k = 4.0\n"),
        (["simulate"], ""),
        (["simulate", "--strain", "-1e-4", "--duration", "1e-6"], ""),
    ],
)
def test_header_replays_the_run(run_cli, tmp_path, argv, config):
    # a second run built from the first file's header alone writes the same
    # bytes: the config from its keys, argv from its flags
    overlay = tmp_path / "reference.csv"
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n")
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    argv = [str(overlay) if word == "OVERLAY" else word for word in argv]
    first = tmp_path / "first.out"
    assert run_cli(*argv, "--config", str(conf), "--output", str(first))[0] == 0

    fmt, command, recorded, flags = _header(first)
    assert command == argv[0]
    replay_conf = tmp_path / "replay.conf"
    replay_conf.write_text("".join(f"{key} = {value!r}\n" for key, value in recorded.items()))
    replay = [command, "--format", fmt, "--config", str(replay_conf)]
    for name, value in flags.items():
        option = "--" + name.replace("_", "-")
        if name == "n0" or value is False:  # derived by the command; a switch left off
            continue
        if value is True:
            replay.append(option)
        elif isinstance(value, list):  # overlays, by file name
            replay += [word for name in value for word in (option, str(tmp_path / name))]
        else:
            replay += [option, str(value)]
    second = tmp_path / "second.out"
    assert run_cli(*replay, "--output", str(second))[0] == 0
    assert second.read_bytes() == first.read_bytes()


def test_csv_schema(run_cli, tmp_path):
    path = tmp_path / "sweep.csv"
    run_cli("sweep-ncav", "--points", "25", "--output", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# command = sweep-ncav"
    comments = [line for line in lines if line.startswith("#")]
    assert "# coupling.j_hz = 10000000.0" in comments
    assert any(line.startswith("# flag.points = 25") for line in comments)
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "n_cav,re_plus_hz,re_minus_hz,im_plus_hz,im_minus_hz,phase"
    assert len(data) == 26  # header plus one line per grid point
    first = data[1].split(",")
    assert first[0] == f"{1e11:.16e}"
    assert first[5] == "pt_symmetric"


def test_json_schema(run_cli, tmp_path):
    path = tmp_path / "locate.json"
    run_cli("ep-locate", "--output", str(path))
    payload = json.loads(path.read_text())
    assert payload["command"] == "ep-locate"
    assert payload["columns"] == ["n0", "g0_rad_s", "phi_s", "gamma_1_rad_s", "gamma_2_rad_s"]
    assert payload["config"]["coupling.j_hz"] == 1e7
    assert list(payload["config"]) == sorted(CONFIG_DEFAULTS)
    assert payload["flags"] == {"ep_convention": "eq7"}
    (row,) = payload["rows"]
    assert 1.33e12 <= row[0] <= 1.63e12


def test_format_flag_switches_renderer(run_cli, tmp_path):
    path = tmp_path / "sweep.out"
    run_cli("sweep-ncav", "--points", "25", "--output", str(path), "--format", "json")
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == 25


def test_overlay_is_embedded(run_cli, tmp_path):
    overlay = tmp_path / "reference.csv"
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n")
    path = tmp_path / "sens.csv"
    code, _, _ = run_cli(
        "sensitivity", "--points", "20", "--overlay", str(overlay), "--output", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert "# overlay = reference.csv" in text
    assert f"{1.0:.16e},{1e-24:.16e}" in text

    jpath = tmp_path / "sens.json"
    run_cli("sensitivity", "--points", "20", "--overlay", str(overlay), "--output", str(jpath), "--format", "json")
    payload = json.loads(jpath.read_text())
    assert payload["overlays"]["reference.csv"] == [[1.0, 1e-24], [10.0, 1e-23]]


def test_no_output_flag_means_dry_run(run_cli, tmp_path):
    code, out, _ = run_cli("sweep-ncav", "--points", "25")
    assert code == 0
    assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(run_cli):
    assert run_cli("ep-locate", "--bogus")[0] == 1
    assert run_cli("no-such-command")[0] == 1
    assert run_cli()[0] == 1
    assert run_cli("sweep-ncav", "--points", "1")[0] == 1  # InvalidRangeError


@pytest.mark.parametrize(
    "argv, exit_code, stream, text",
    [(["ep-locate"], 0, "stdout", "n0 = "), (["simulate", "--strain", "0.5"], 1, "stderr", "error: strain h = 0.5")],
)
def test_module_entry_point_exits_with_mains_status(argv, exit_code, stream, text):
    # `python -m epgw.cli` turns main's return value into the exit status
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "epgw.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == exit_code
    assert text in getattr(run, stream)
    assert run.stderr.count("\n") == run.stderr.count("error:") == exit_code  # one error line on failure


def test_config_errors_exit_1(run_cli, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("resonator.mass_kg = -1\n")
    code, _, err = run_cli("ep-locate", "--config", str(bad))
    assert code == 1
    assert "error:" in err

    unknown = tmp_path / "unknown.conf"
    unknown.write_text("resonator.bogus = 1\n")
    assert run_cli("ep-locate", "--config", str(unknown))[0] == 1


def test_domain_errors_exit_2(run_cli, tmp_path):
    decoupled = tmp_path / "j0.conf"
    decoupled.write_text("coupling.j_hz = 0\n")
    code, _, err = run_cli("ep-locate", "--config", str(decoupled))
    assert code == 2
    assert "error:" in err

    # coarse explicit dt trips the sampling guard
    assert run_cli("simulate", "--dt", "1e-9", "--duration", "1e-6")[0] == 2
    # also when it is coarser than the whole default duration
    assert run_cli("simulate", "--dt", "1e-3")[0] == 2
    # too short a run for the spectral estimator
    assert run_cli("simulate", "--dt", "9e-11", "--duration", "5e-8")[0] == 2


def test_simulate_beyond_ep_needs_explicit_duration(run_cli):
    # negative strain raises the photon number above threshold: no real
    # splitting, so the default duration rule has nothing to work with
    code, _, err = run_cli("simulate", "--strain", "-1e-4")
    assert code == 1
    assert "error:" in err
    assert "give --duration explicitly" in err


@pytest.mark.parametrize("token", ["-1e-4", "-2.5E+3", "-.5e1"])
def test_negative_flag_value_in_exponent_form_is_a_number(token):
    # argparse alone takes such a token for an option string
    args = build_parser().parse_args(["sweep-strain", "--min", token])
    assert args.min == float(token)


def test_negative_strain_spellings_write_the_same_bytes(run_cli, tmp_path):
    outputs = []
    for index, spelling in enumerate((["--strain", "-1e-4"], ["--strain", "-0.0001"], ["--strain=-1e-4"])):
        out = tmp_path / f"{index}.csv"
        assert run_cli("simulate", *spelling, "--duration", "1e-6", "--output", str(out))[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"# flag.strain = -0.0001\n" in outputs[0]


def test_readme_cli_examples_run(run_cli, tmp_path, monkeypatch):
    # each `epgw ...` line of README's sh blocks runs as written, in a
    # directory that holds the overlay file the examples name
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("epgw ")]
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reference.csv").write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n")
    for line in lines:
        code, _, err = run_cli(*shlex.split(line, comments=True)[1:])
        assert code == 0, f"{line}: {err}"


def test_config_with_a_byte_order_mark_reads_as_without(run_cli, tmp_path):
    # spreadsheet "CSV UTF-8" exports and some editors start text with a BOM
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(bom + "coupling.j_hz = 2e7\nnoise.temperature_k = 4.0\n", encoding="utf-8")
        out = tmp_path / f"{name}.json"
        assert run_cli("ep-locate", "--config", str(conf), "--output", str(out))[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"coupling.j_hz": 20000000.0' in outputs[0]


def test_overlay_with_a_byte_order_mark_reads_as_without(run_cli, tmp_path):
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / name).mkdir()
        overlay = tmp_path / name / "reference.csv"  # one basename: the overlay's key
        overlay.write_text(bom + "frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n", encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert run_cli("sensitivity", "--points", "20", "--overlay", str(overlay), "--output", str(out))[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"# overlay = reference.csv\nfrequency_hz,strain\n1.0000000000000000e+00," in outputs[0]


@pytest.mark.parametrize(
    "flag, text, named",
    [
        ("--config", b"coupling.j_hz = 2e7\nnoise.temperature_k = 4.0  # \xb0K\n", "line 2: byte 0xb0"),
        ("--overlay", b"frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\xff\n", "line 3: byte 0xff"),
    ],
)
def test_file_that_is_not_utf8_exits_1_naming_its_line(run_cli, tmp_path, flag, text, named):
    # a Latin-1 degree sign in a comment, or a stray byte in a cell: the
    # error names the line that holds the first byte that is not UTF-8
    source = tmp_path / "input.txt"
    source.write_bytes(text)
    out = tmp_path / "out.csv"
    code, _, err = run_cli("sensitivity", "--points", "3", flag, str(source), "--output", str(out))
    assert code == 1
    assert not out.exists()
    assert err == f"error: {named} is not UTF-8\n"


@pytest.mark.parametrize("second", ["b/ref.csv", "a/ref.csv"], ids=["same-basename", "same-file"])
def test_overlays_with_one_basename_exit_1_without_output(run_cli, tmp_path, second):
    # the basename keys the overlay in the output; a second one would
    # silently replace the first
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ref.csv").write_text("frequency_hz,strain\n1.0,1e-24\n")
    out = tmp_path / "x.csv"
    overlays = ["--overlay", str(tmp_path / "a" / "ref.csv"), "--overlay", str(tmp_path / second)]
    code, _, err = run_cli("sensitivity", "--points", "3", *overlays, "--output", str(out))
    assert code == 1
    assert not out.exists()
    assert err.startswith("error:") and "'ref.csv'" in err


@pytest.mark.parametrize("name", ["a\n1.5,2.csv", "a\rb.csv", "a\tb.csv", "a\udcffb.csv"])
def test_overlay_name_that_is_not_printable_exits_1_without_output(run_cli, tmp_path, name):
    # the CSV header writes the name on one comment line: a line break in
    # it would end the comment and add a data row to the file, and a byte
    # that is not UTF-8 (decoded to a lone surrogate) cannot be written
    overlay = tmp_path / name
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli("sensitivity", "--points", "2", "--overlay", str(overlay), "--output", str(out))
    assert code == 1
    assert not out.exists()
    assert err.startswith("error: argument --overlay:") and err.count("\n") == 1


def test_io_errors_exit_3(run_cli, tmp_path):
    assert run_cli("ep-locate", "--config", str(tmp_path / "missing.conf"))[0] == 3
    missing_overlay = tmp_path / "missing.csv"
    assert run_cli("sensitivity", "--points", "20", "--overlay", str(missing_overlay))[0] == 3
    unwritable = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli("ep-locate", "--output", str(unwritable))[0] == 3


@pytest.mark.parametrize(
    "config, argv, named",
    [
        ("resonator.gamma_m_hz = nan", ["ep-locate"], "gamma_m"),
        # a config value is named by its key, as written
        ("coupling.j_hz = inf", ["ep-locate"], "coupling.j_hz = inf"),
        # the drive is simulate's --photon-number, not a config key
        ("drive.photon_number = 1e12", ["simulate"], "unknown config key: 'drive.photon_number'"),
        ("", ["sweep-ncav", "--max", "inf", "--points", "5"], "n_max"),
        ("", ["sensitivity", "--fmax", "inf", "--points", "5"], "f_max"),
        ("", ["simulate", "--strain", "0.5"], "strain"),
        # finite but extreme: the eigenvalues overflow, or the integration
        # time 0.5/f is subnormal and the strain floor's denominator underflows
        ("", ["sweep-ncav", "--max", "1e300", "--points", "3"], "n_max"),
        ("", ["sweep-ncav", "--max", "1e300", "--points", "3", "--format", "json"], "n_max"),
        ("", ["sensitivity", "--fmax", "1e308", "--points", "5"], "f_max"),
        # finite but extreme config values: an arm constant or J^2 leaves
        # double precision, or the eigenvalues overflow at the drive
        ("coupling.j_hz = 1e300", ["ep-locate"], "coupling_j"),
        ("coupling.j_hz = 1e300", ["sweep-strain"], "coupling_j"),
        ("resonator.frequency_hz = 1e300", ["sweep-ncav"], "phi"),
        ("cavity.decay_rate_hz = 1e-300", ["sweep-ncav"], "phi"),
        ("cavity.length_m = 1e-300", ["ep-locate"], "g0"),
        ("cavity.length_m = 1e-160", ["ep-locate", "--format", "csv"], "g0"),
        ("resonator.frequency_hz = 1e-300", ["ep-locate", "--format", "csv"], "g0"),
        ("cavity.length_m = 1e-100", ["simulate", "--dt", "1e-11", "--duration", "1.1e-8"], "g0"),
        ("", ["simulate", "--photon-number", "1e289", "--dt", "1e-11", "--duration", "1.1e-8"], "n_cav"),
        # a sample count beyond the limit, inf included
        ("", ["simulate", "--duration", "1e300"], "duration"),
        ("", ["simulate", "--dt", "1e-300"], "dt"),
        # a grid beyond the point-count limit, refused before it is allocated
        ("", ["sweep-ncav", "--points", "10000000000000"], "points"),
        ("", ["sweep-strain", "--points", "10000000000000"], "points"),
        ("", ["sensitivity", "--points", "10000000000000"], "points"),
        # the photon-number flag, checked at parse or before the drive is
        # strained
        ("", ["simulate", "--photon-number", "nan"], "photon_number"),
        ("", ["simulate", "--photon-number", "inf"], "photon_number"),
        ("", ["simulate", "--photon-number", "-1"], "photon_number"),
        # a step that is not finite is an input error, not a coarse sampling
        ("", ["simulate", "--dt", "inf", "--duration", "1e-6"], "dt = inf"),
        # negative non-finite spellings are values, named with their flag
        ("", ["simulate", "--strain", "-inf"], "h = -inf"),
        ("", ["simulate", "--dt", "-inf"], "dt = -inf"),
        ("", ["sensitivity", "--fmin", "-inf", "--points", "5"], "f_min = -inf"),
        ("", ["simulate", "--strain", "-nan"], "h = nan"),
        ("", ["sweep-ncav", "--min", "-Infinity", "--points", "5"], "n_min = -inf"),
        ("", ["sweep-strain", "--min", "-NaN", "--points", "5"], "h_min = nan"),
        # a value that is not finite is named at parse, before any other
        # fault: the first such flag of argv
        ("", ["simulate", "--dt", "1e300", "--duration", "nan"], "duration = nan"),
        ("", ["sweep-ncav", "--min", "nan", "--points", "0"], "n_min = nan"),
        # the integration time is the config key alone
        ("", ["sensitivity", "--tmax", "36", "--points", "5"], "unrecognized arguments: --tmax 36"),
        ("", ["simulate", "--strain", "1e300", "--dt", "nan"], "error: argument --dt: dt = nan is not finite"),
        ("sensitivity.t_max_s = nan", ["sensitivity", "--points", "5"], "sensitivity.t_max_s = nan"),
        # the strain floor does not depend on the convention, so sensitivity
        # does not offer it rather than ignore it
        ("", ["sensitivity", "--ep-convention", "eq8", "--points", "5"], "--ep-convention"),
        # a strain floor outside double precision, underflow to 0 included,
        # names the factors; f_max only when the cap set the tau that failed
        ("noise.temperature_k = 1e-300", ["sensitivity", "--points", "5"], "T = 1e-300 K"),
        ("resonator.mass_kg = 1e300", ["sensitivity", "--points", "5"], "m = 1e+300 kg"),
        ("resonator.mass_kg = 1e-320", ["sensitivity", "--points", "5"], "resonator.mass_kg = 1e-320"),
        # k_B T is subnormal, so the floor would carry about 11 significant bits
        ("noise.temperature_k = 1e-290", ["sensitivity", "--points", "3"], "T = 1e-290 K"),
        ("noise.temperature_k = 1e-290", ["sensitivity", "--points", "3"], "error: k_B T = 1.380649e-313 J"),
        # a subnormal strain, as an end, a grid step or the simulate flag
        ("", ["sweep-strain", "--log", "--min", "5e-324", "--max", "1e-300", "--points", "3"], "h = 5e-324"),
        ("", ["sweep-strain", "--min", "0", "--max", "1e-303", "--points", "50000"], "strain h = "),
        ("", ["simulate", "--strain", "-1e-310"], "h = -1e-310"),
        # the closed form finds the EP, but the discriminant overflows there
        ("coupling.j_hz = 1.3e153", ["ep-locate"], "coupling_j = 8.168140899333462e+153"),
        ("coupling.j_hz = 1.3e153", ["sweep-strain"], "coupling_j = 8.168140899333462e+153"),
        ("coupling.j_hz = 1.3e153", ["simulate"], "coupling_j = 8.168140899333462e+153"),
        # a cell that would be written subnormal, named by its column
        ("", ["sweep-ncav", "--min", "0", "--max", "1e-310", "--points", "3"], "n_cav = 5e-311"),
        ("", ["sensitivity", "--fmin", "5e-324", "--fmax", "1e-300", "--points", "3"], "frequency_hz = 5e-324"),
        # a strain response below the normal range, named by its h and J
        (
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-300", "--max", "1e-20", "--points", "3"],
            "coupling_j = 6.283185307179586e-300: the strain response at h = 1e-300 underflows",
        ),
        # a subnormal config value, named by its key
        (
            "resonator.gamma_m_hz = 1e-310",
            ["sweep-ncav", "--min", "0", "--max", "1", "--points", "2"],
            "resonator.gamma_m_hz = 1e-310",
        ),
        ("coupling.j_hz = 1e-310", ["ep-locate"], "coupling.j_hz = 1e-310"),
        # a flag that is not finite is refused before the EP is located
        ("coupling.j_hz = 1.3e153", ["sweep-strain", "--max", "nan"], "argument --max: h_max = nan is not finite"),
        # the discriminant underflows to 0 while d_approx is normal, or both do
        (
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-16", "--max", "1e-2", "--points", "3"],
            "the strain response at h = 1e-16 underflows",
        ),
        (
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-200", "--max", "1e-100", "--points", "3"],
            "the strain response at h = 1e-200 underflows",
        ),
    ],
)
def test_bad_input_exits_1_without_output(run_cli, tmp_path, config, argv, named):
    # bad input is refused with one error line naming the input, and no
    # file is written
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n")
    out = tmp_path / "out.dat"
    code, _, err = run_cli(*argv, "--config", str(conf), "--output", str(out))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert "expected one argument" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        # the finite eigenvalues put a mode on e^{7e121 t}
        ("", ["simulate", "--photon-number", "1.6217565213242456e+126", "--dt", "1e-11", "--duration", "1.1e-8"]),
        # every value inside the ranges the properties draw from
        (
            "cavity.length_m = 1e-05\nresonator.frequency_hz = 1e8",
            ["simulate", "--photon-number", "1e14", "--dt", "1e-10", "--duration", "1.1e-7"],
        ),
    ],
    ids=["photon_number_1e126", "short_cavity"],
)
def test_runaway_gain_exits_2_without_output(run_cli, tmp_path, config, argv):
    # valid input whose trajectory overflows double precision is a domain
    # error: one error line naming the trajectory, and no file written
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n")
    out = tmp_path / "out.dat"
    code, _, err = run_cli(*argv, "--config", str(conf), "--output", str(out))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "trajectory" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_cell_exits_1_without_output(run_cli, tmp_path, monkeypatch, fmt, value):
    # a NaN or infinite result is refused in CSV as in JSON, named by its
    # column and value, instead of being written
    from epgw import SensitivityCurve, cli

    curve = SensitivityCurve(np.array([1.0]), np.array([0.5]), np.array([value]))
    monkeypatch.setattr(cli, "sensitivity_curve", lambda *args, **kwargs: curve)
    out = tmp_path / f"sens.{fmt}"
    code, _, err = run_cli("sensitivity", "--format", fmt, "--output", str(out))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"h_min = {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["ep-locate"], 2),  # no EP exists without coupling: a domain error
        (["sweep-ncav", "--points", "5"], 1),
        (["sweep-strain", "--points", "5"], 1),
        (["sensitivity", "--points", "5"], 1),
        (["simulate"], 1),
    ],
)
def test_zero_coupling_exit_code_per_command(run_cli, tmp_path, argv, exit_code):
    conf = tmp_path / "j0.conf"
    conf.write_text("coupling.j_hz = 0\n")
    code, _, err = run_cli(*argv, "--config", str(conf))
    assert code == exit_code
    assert err.startswith("error:")
