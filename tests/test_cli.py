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

from epgw import (
    ConfigParseError,
    UnknownKeyError,
    ValidationError,
    eigenvalues_general,
    ep_photon_number,
    min_detectable_strain,
    splitting,
)
from epgw.cli import CONFIG_DEFAULTS, RunConfig, build_parser, main, parse_config, parse_config_text
from oracle import strained_directly

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
    # the synopsis: exactly the options every command takes, help aside
    shared = set.intersection(*map(set, options.values())) - {"-h", "--help"}
    synopsis = section.split("```", 2)[1]
    assert set(re.findall(r"--[a-z-]+", synopsis)) == shared
    assert [command for command, _ in rows] == list(commands)
    for command, cell in rows:
        flags = dict(re.findall(r"(--[a-z-]+)(?: ([^-\s`][^\s`]*))?", cell))
        assert set(flags) == set(options[command]) - shared - {"-h", "--help"}, command
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
    ("sweep-ncav", "--min"): "2e11",
    ("sweep-ncav", "--max"): "4e12",
    ("sweep-ncav", "--points"): "6",
    ("sweep-ncav", "--log"): None,
    ("sweep-strain", "--min"): "1e-25",
    ("sweep-strain", "--max"): "1e-21",
    ("sweep-strain", "--points"): "6",
    ("sweep-strain", "--log"): None,
    ("sensitivity", "--fmin"): "1e-6",
    ("sensitivity", "--fmax"): "1e2",
    ("sensitivity", "--points"): "6",
    ("sensitivity", "--tau-rule"): "full",
    ("sensitivity", "--overlay"): "FILE",
    ("simulate", "--strain"): "2e-4",
    ("simulate", "--photon-number"): "1e12",
    ("simulate", "--duration"): "3e-7",
    ("simulate", "--dt"): "1e-11",
}
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
    "command, config, flags",
    [pytest.param(command, f"{key} = {value!r}\n", [], id=key) for key, (value, command) in KEY_READERS.items()]
    + [
        pytest.param(command, "", [flag] + ([value] if value else []), id=f"{command} {flag}")
        for (command, flag), value in FLAG_VALUES.items()
    ],
)
def test_every_setting_changes_the_data_rows(run_cli, tmp_path, command, config, flags):
    overlay = tmp_path / "reference.csv"
    overlay.write_text("frequency_hz,strain\n1.0,1e-24\n")
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    flags = [str(overlay) if word == "FILE" else word for word in flags]
    rows = []
    for extra in ([], ["--config", str(conf), *flags]):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(command, *SMALL_RUN[command], *extra, "--format", "csv", "--output", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        rows.append([line for line in lines if not line.startswith("#")])
    assert rows[0] != rows[1]


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


def test_simulate_at_half_the_ep_drive_predicts_the_exact_peaks(run_cli, tmp_path):
    # half the EP photon number puts the balanced pair at Gamma = J, deep in
    # the PT phase (the EP of the simplified discriminant J^2 + B^2)
    located = tmp_path / "ep.json"
    assert run_cli("ep-locate", "--output", str(located))[0] == 0
    drive = json.loads(located.read_text())["rows"][0][0] / 2.0
    path = tmp_path / "sim.csv"
    code, out, _ = run_cli("simulate", "--photon-number", repr(drive), "--output", str(path))
    assert code == 0
    assert _stdout_float(out, "n_cav") == pytest.approx(drive, rel=1e-6)
    rows = [line.split(",") for line in path.read_text().splitlines() if line[:1].isdigit()]
    assert len(rows) == 2
    for _, freq, _, predicted, resolution in rows:
        assert abs(float(freq) - float(predicted)) < 0.1 * float(resolution)


def test_simulate_predicts_the_splitting_of_its_strain(run_cli, tmp_path):
    # simulate drives the pair at n0 (1 - 2h)^2: its two predicted_hz cells
    # differ by splitting's d_exact within the drive identity's bound (see
    # strained_directly) and the cells' rounding, each cell lambda.real / 2 pi
    # rounded in the division and to 17 digits, within 2 eps of itself
    path = tmp_path / "sim.csv"
    assert run_cli("simulate", "--strain", "1e-2", "--output", str(path))[0] == 0
    rows = [line.split(",") for line in path.read_text().splitlines() if line[:1].isdigit()]
    low, high = sorted(float(row[3]) for row in rows)
    system = parse_config(None).system()
    n0 = ep_photon_number(system)
    _, _, bound = strained_directly(system, n0, 1e-2)
    rounding = 2.0 * 2.0 * sys.float_info.epsilon * high
    assert abs((high - low) - splitting(system, n0, 1e-2).d_exact / TWO_PI) <= bound / TWO_PI + rounding


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
# The simulate digest was re-recorded when propagate_exact took one closed
# form for every pair, in place of the spectral projectors off the EP: only
# the two linewidth cells moved, peak 0 from 9.5517192967589835e+03 to
# 9.5517192967410610e+03 and peak 1 from 9.5032302642417417e+03 to
# 9.5032302642398427e+03 (2e-12 and 2e-13 relative). At this drive the new
# trajectory is 13x closer to a 40-digit mpmath expm: 0.019 of the seam
# bound 16 eps (1 + max|lambda| t), against 0.255.
# The ep-locate, sweep-ncav, sweep-ncav-json, sweep-strain and simulate
# digests, and the two JSON_VALUE digests of those commands, were
# re-recorded when the discriminant convention flag was deleted: each file
# lost that one header line (CSV "# flag.ep_convention = 'eq7'", JSON
# "ep_convention": "eq7" in flags) and no other byte moved.
GOLDEN = {
    "ep-locate": "9ae7153e977a7bc86ce3ae3b7b3baac3a4c9d38eec95b775d7771066ce685e92",
    "sweep-ncav": "27220f589314c3cdddb7b6b745acd884edc016188090333314f80f50a89693dc",
    "sweep-ncav-json": "6216991c0a79adbcc3a217187b8ceeefa4496e62bb54057358e3d51831380d22",
    "sweep-strain": "2cccabe32e435d7d995b1a02e37ab4038b42b0f2698475999cf961b2e303ad91",
    "sensitivity": "287dcc8329400dd7d7267196611322235e23293cf9bf7d2dcdca450c96bf8708",
    "simulate": "c91e37d12167fd9810192e49a9e3b9b2cfcc652cae79e3b1c1b36af18342d5da",
    "sensitivity-overlay-json": "c27f3379ff397024a626362b644622db4570ee397ffee3e9ad638cb644212151",
    "sensitivity-overlay-csv": "b9873cd0a8cf659ca419c00889abfe64c034335332d05e86e38b59f4fc717f6b",
}
JSON_VALUE = {
    "ep-locate": "4db722bd7fa05f44a76272951bf4604b8ab35b508c85aefc0eddcadc86b2731c",
    "sweep-ncav-json": "5fbc81f5d896df3c1742fc0e7d40e93a40e089373796f401fa51fb2a65bc167b",
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


@pytest.mark.parametrize(
    "argv",
    [["ep-locate"], ["sweep-ncav"], ["sweep-strain"], ["sensitivity"], ["sensitivity", "--overlay"], ["simulate"]],
    ids=["ep-locate", "sweep-ncav", "sweep-strain", "sensitivity", "sensitivity-overlay", "simulate"],
)
def test_json_file_is_what_json_dumps_writes(run_cli, tmp_path, argv):
    # every command's JSON, written from arrays, is byte for byte the text
    # json.dumps writes for the value it holds: floats as repr, simulate's
    # peak column as integers, a phase as its quoted value
    if argv[-1] == "--overlay":
        overlay = tmp_path / "référence.csv"  # a name json.dumps escapes
        overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n1e-05,3600.0\n")
        argv = argv + [str(overlay)]
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--format", "json", "--output", str(out))[0] == 0
    text = out.read_text()
    value = json.loads(text)
    assert text == json.dumps(value, sort_keys=True) + "\n"
    assert len(value["rows"]) > 0 and all(len(row) == len(value["columns"]) for row in value["rows"])


def _header(path):
    """(format, command, config, flags) as the file at ``path`` records them."""
    text = path.read_text(encoding="utf-8")
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


# Each row carries an explicit id (the positional id it was first collected
# under), so a row added or moved renames no other test.
@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["ep-locate"], "", id="argv0-"),
        pytest.param(["ep-locate", "--format", "csv"], "coupling.j_hz = 2e7\n", id="argv1-coupling.j_hz = 2e7\n"),
        pytest.param(["sweep-ncav", "--log"], "", id="argv2-"),
        pytest.param(
            ["sweep-ncav", "--format", "json", "--points", "7"],
            "cavity.length_m = 2e-4\n",
            id="argv3-cavity.length_m = 2e-4\n",
        ),
        pytest.param(["sweep-strain", "--log"], "", id="argv4-"),
        pytest.param(["sensitivity", "--tau-rule", "full", "--overlay", "OVERLAY"], "", id="argv5-"),
        pytest.param(
            ["sensitivity", "--format", "json", "--points", "9", "--overlay", "OVERLAY"],
            "noise.temperature_k = 4.0\n",
            id="argv6-noise.temperature_k = 4.0\n",
        ),
        pytest.param(["simulate"], "", id="argv7-"),
        pytest.param(["simulate", "--strain", "-1e-4", "--duration", "1e-6"], "", id="argv8-"),
        pytest.param(["sensitivity", "--overlay", "NON_ASCII_OVERLAY"], "", id="non-ascii-overlay-csv"),
    ],
)
def test_header_replays_the_run(run_cli, tmp_path, argv, config):
    # a second run built from the first file's header alone writes the same
    # bytes: the config from its keys, argv from its flags
    overlays = {"OVERLAY": tmp_path / "reference.csv", "NON_ASCII_OVERLAY": tmp_path / "référence.csv"}
    for overlay in overlays.values():
        overlay.write_text("frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n0.1,3.5e-22\n")
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    argv = [str(overlays[word]) if word in overlays else word for word in argv]
    first = tmp_path / "first.out"
    assert run_cli(*argv, "--config", str(conf), "--output", str(first))[0] == 0

    fmt, command, recorded, flags = _header(first)
    assert command == argv[0]
    if fmt == "csv" and "overlay" in flags:  # the header's names, raw and UTF-8
        lines = first.read_bytes().splitlines()
        assert f"# flag.overlay = {flags['overlay']!r}".encode() in lines
        assert all(f"# overlay = {name}".encode() in lines for name in flags["overlay"])
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
    assert payload["flags"] == {}
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

    # an overlay of only its header is embedded as an empty table
    empty = tmp_path / "empty.csv"
    empty.write_text("frequency_hz,strain\n")
    argv = ["sensitivity", "--points", "20", "--overlay", str(overlay), "--overlay", str(empty)]
    assert run_cli(*argv, "--output", str(path))[0] == 0
    assert "\n# overlay = empty.csv\nfrequency_hz,strain\n# overlay = reference.csv\n" in path.read_text()
    assert run_cli(*argv, "--output", str(jpath), "--format", "json")[0] == 0
    assert json.loads(jpath.read_text())["overlays"]["empty.csv"] == []


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
    [
        (["ep-locate"], 0, "stdout", "n0 = "),
        (["simulate", "--strain", "0.5"], 1, "stderr", "error: strain h = 0.5"),
        # a cell one character longer than the csv module's field limit
        (["sensitivity", "--overlay", "BIG"], 1, "stderr", "error: line 2: field larger than field limit (131072)"),
        (["sweep-ncav", "--points", "1"], 1, "stderr", "error: points = 1; need 2 to 1048576 points"),
    ],
)
def test_module_entry_point_exits_with_mains_status(tmp_path, argv, exit_code, stream, text):
    # `python -m epgw.cli` turns main's return value into the exit status
    big = tmp_path / "big.csv"
    big.write_text("frequency_hz,strain\n" + "1" * 131_073 + ",1e-24\n")
    argv = [str(big) if word == "BIG" else word for word in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "epgw.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == exit_code
    assert text in getattr(run, stream)
    assert "Traceback" not in run.stderr
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


def test_readme_library_examples_run():
    # README's python blocks run in order, in one namespace, as a reader
    # would paste them, and the EP they state is the one they compute
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["n0"] == pytest.approx(1.406e12, rel=1e-3)
    assert "~1.406e12" in blocks[0]


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
        # a form feed or U+2028 ends no line; CR LF, CR and LF each end one
        pytest.param(
            "--config", b"# \x0c\nnoise.temperature_k = 4.0  # \xb0K\n", "line 2: byte 0xb0", id="config-form-feed"
        ),
        pytest.param(
            "--config",
            b"coupling.j_hz = 2e7\rnoise.temperature_k = 4.0  # \xb0K\r",
            "line 2: byte 0xb0",
            id="config-cr",
        ),
        pytest.param(
            "--overlay", b"frequency_hz,strain\n1.0,1e-24\x0c\n10.0,\xff\n", "line 3: byte 0xff", id="overlay-form-feed"
        ),
        pytest.param(
            "--overlay",
            "frequency_hz,strain\n1.0,1e-24\u2028\n10.0,".encode() + b"\xff\n",
            "line 3: byte 0xff",
            id="overlay-u2028",
        ),
        pytest.param("--overlay", b"frequency_hz,strain\r1.0,1e-24\r10.0,\xff\r", "line 3: byte 0xff", id="overlay-cr"),
        # after a byte-order mark, the byte named is the one at fault
        pytest.param("--config", b"\xef\xbb\xbf# \xb0K\n", "line 1: byte 0xb0", id="config-bom"),
        pytest.param(
            "--overlay",
            b"\xef\xbb\xbffrequency_hz,strain\r\n1.0,1e-24\r\n10.0,\xff\r\n",
            "line 3: byte 0xff",
            id="overlay-bom",
        ),
        # a bad byte is named before any other fault, wherever it sits
        pytest.param(
            "--overlay",
            b"frequency_hz,strain\n" + b"1" * 131_073 + b",1e-24\n" + b"1.0,2.0\n" * 2000 + b"3.0,\xff\n",
            "line 2003: byte 0xff",
            id="overlay-bad-byte-after-cell-over-field-limit",
        ),
    ],
)
def test_file_that_is_not_utf8_exits_1_naming_its_line(run_cli, tmp_path, flag, text, named):
    # a Latin-1 degree sign in a comment, or a stray byte in a cell: the
    # error names the line that holds the first byte that is not UTF-8,
    # counting lines as the csv module does
    source = tmp_path / "input.txt"
    source.write_bytes(text)
    out = tmp_path / "out.csv"
    code, _, err = run_cli("sensitivity", "--points", "3", flag, str(source), "--output", str(out))
    assert code == 1
    assert not out.exists()
    assert err == f"error: {named} is not UTF-8\n"


def test_config_line_ends_only_at_cr_or_lf(run_cli, tmp_path):
    # a U+2028 inside a comment neither ends the comment nor its line
    conf = tmp_path / "notes.conf"
    conf.write_text("# see notes\u2028(see notes)\nnoise.temperature_k = warm\n", encoding="utf-8")
    assert run_cli("ep-locate", "--config", str(conf)) == (1, "", "error: line 2: not a number: 'warm'\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
@pytest.mark.parametrize(
    "flag, data, code, err",
    [
        ("--overlay", b"frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\n", 0, ""),
        ("--overlay", b"frequency_hz,strain\r\n1.0,1e-24\r\n10.0,1e-23\r\n", 0, ""),
        ("--overlay", b"frequency_hz,strain\r\n1.0,1e-24\r\n10.0,x\r\n", 1, "line 3: non-numeric cell"),
        ("--overlay", b"frequency_hz,strain\n1.0,1e-24\n10.0,1e-23\xff\n", 1, "line 3: byte 0xff is not UTF-8"),
        ("--config", b"noise.temperature_k = 4.0  # \xb0K\n", 1, "line 1: byte 0xb0 is not UTF-8"),
    ],
    ids=["plain-overlay", "crlf-overlay", "crlf-overlay-bad-cell", "overlay-bad-byte", "config-bad-byte"],
)
def test_input_read_from_a_pipe(run_cli, tmp_path, flag, data, code, err):
    # a pipe can be read once: each reader opens its path once and reads it
    # whole, on the plain, csv and error paths alike
    read, write = os.pipe()
    with os.fdopen(write, "wb") as fh:
        fh.write(data)  # far below a pipe's buffer, so it does not block
    out = tmp_path / "out.csv"
    try:
        result = run_cli("sensitivity", "--points", "3", flag, f"/dev/fd/{read}", "--output", str(out))
    finally:
        os.close(read)
    assert result[0] == code
    if code:
        assert result[2].startswith(f"error: {err}") and result[2].count("\n") == 1
        assert not out.exists()
    else:
        rows = "1.0000000000000000e+00,9.9999999999999992e-25\n1.0000000000000000e+01,9.9999999999999996e-24\n"
        assert out.read_text().endswith(f"# overlay = {read}\nfrequency_hz,strain\n{rows}")


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
    # one error line and nothing on stdout: the summary of a run whose
    # output cannot be written is never printed
    for argv in [
        ["ep-locate", "--config", str(tmp_path / "missing.conf")],
        ["sensitivity", "--points", "20", "--overlay", str(tmp_path / "missing.csv")],
        ["ep-locate", "--output", str(tmp_path / "no" / "such" / "dir" / "out.csv")],
    ]:
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "command", [pytest.param("", id="epgw"), "ep-locate", "sweep-ncav", "sweep-strain", "sensitivity", "simulate"]
)
def test_help_exits_0_on_stdout(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: epgw", *argv[:-1]]) + " ")
    assert err == ""
    # user-facing text: no private name, no reST markup
    assert "_emit" not in out and "``" not in out


# Each row carries an explicit id (the positional id it was first collected
# under), so a row added or moved renames no other test.
@pytest.mark.parametrize(
    "config, argv, named",
    [
        pytest.param(
            "resonator.gamma_m_hz = nan",
            ["ep-locate"],
            "gamma_m",
            id="resonator.gamma_m_hz = nan-argv0-gamma_m",
        ),
        # a config value is named by its key, as written
        pytest.param(
            "coupling.j_hz = inf",
            ["ep-locate"],
            "coupling.j_hz = inf",
            id="coupling.j_hz = inf-argv1-coupling.j_hz = inf",
        ),
        # the drive is simulate's --photon-number, not a config key
        pytest.param(
            "drive.photon_number = 1e12",
            ["simulate"],
            "unknown config key: 'drive.photon_number'",
            id="drive.photon_number = 1e12-argv2-unknown config key: 'drive.photon_number'",
        ),
        pytest.param("", ["sweep-ncav", "--max", "inf", "--points", "5"], "n_max", id="-argv3-n_max"),
        pytest.param("", ["sensitivity", "--fmax", "inf", "--points", "5"], "f_max", id="-argv4-f_max"),
        pytest.param("", ["simulate", "--strain", "0.5"], "strain", id="-argv5-strain"),
        # finite but extreme: the eigenvalues overflow, or the integration
        # time 0.5/f is subnormal and the strain floor's denominator underflows
        pytest.param("", ["sweep-ncav", "--max", "1e300", "--points", "3"], "n_max", id="-argv6-n_max"),
        pytest.param(
            "",
            ["sweep-ncav", "--max", "1e300", "--points", "3", "--format", "json"],
            "n_max",
            id="-argv7-n_max",
        ),
        pytest.param("", ["sensitivity", "--fmax", "1e308", "--points", "5"], "f_max", id="-argv8-f_max"),
        # finite but extreme config values: an arm constant or J^2 leaves
        # double precision, or the eigenvalues overflow at the drive
        pytest.param("coupling.j_hz = 1e300", ["ep-locate"], "coupling_j", id="coupling.j_hz = 1e300-argv9-coupling_j"),
        pytest.param(
            "coupling.j_hz = 1e300",
            ["sweep-strain"],
            "coupling_j",
            id="coupling.j_hz = 1e300-argv10-coupling_j",
        ),
        pytest.param(
            "resonator.frequency_hz = 1e300",
            ["sweep-ncav"],
            "phi",
            id="resonator.frequency_hz = 1e300-argv11-phi",
        ),
        pytest.param(
            "cavity.decay_rate_hz = 1e-300",
            ["sweep-ncav"],
            "phi",
            id="cavity.decay_rate_hz = 1e-300-argv12-phi",
        ),
        pytest.param("cavity.length_m = 1e-300", ["ep-locate"], "g0", id="cavity.length_m = 1e-300-argv13-g0"),
        pytest.param(
            "cavity.length_m = 1e-160",
            ["ep-locate", "--format", "csv"],
            "g0",
            id="cavity.length_m = 1e-160-argv14-g0",
        ),
        pytest.param(
            "resonator.frequency_hz = 1e-300",
            ["ep-locate", "--format", "csv"],
            "g0",
            id="resonator.frequency_hz = 1e-300-argv15-g0",
        ),
        pytest.param(
            "cavity.length_m = 1e-100",
            ["simulate", "--dt", "1e-11", "--duration", "1.1e-8"],
            "g0",
            id="cavity.length_m = 1e-100-argv16-g0",
        ),
        pytest.param(
            "",
            ["simulate", "--photon-number", "1e289", "--dt", "1e-11", "--duration", "1.1e-8"],
            "n_cav",
            id="-argv17-n_cav",
        ),
        # a sample count beyond the limit, inf included
        pytest.param("", ["simulate", "--duration", "1e300"], "duration", id="-argv18-duration"),
        pytest.param("", ["simulate", "--dt", "1e-300"], "dt", id="-argv19-dt"),
        # a grid beyond the point-count limit, refused before it is allocated
        pytest.param("", ["sweep-ncav", "--points", "10000000000000"], "points", id="-argv20-points"),
        pytest.param("", ["sweep-strain", "--points", "10000000000000"], "points", id="-argv21-points"),
        pytest.param("", ["sensitivity", "--points", "10000000000000"], "points", id="-argv22-points"),
        # the photon-number flag, checked at parse or before the drive is
        # strained
        pytest.param("", ["simulate", "--photon-number", "nan"], "photon_number", id="-argv23-photon_number"),
        pytest.param("", ["simulate", "--photon-number", "inf"], "photon_number", id="-argv24-photon_number"),
        pytest.param("", ["simulate", "--photon-number", "-1"], "photon_number", id="-argv25-photon_number"),
        # a step that is not finite is an input error, not a coarse sampling
        pytest.param("", ["simulate", "--dt", "inf", "--duration", "1e-6"], "dt = inf", id="-argv26-dt = inf"),
        # negative non-finite spellings are values, named with their flag
        pytest.param("", ["simulate", "--strain", "-inf"], "h = -inf", id="-argv27-h = -inf"),
        pytest.param("", ["simulate", "--dt", "-inf"], "dt = -inf", id="-argv28-dt = -inf"),
        pytest.param("", ["sensitivity", "--fmin", "-inf", "--points", "5"], "f_min = -inf", id="-argv29-f_min = -inf"),
        pytest.param("", ["simulate", "--strain", "-nan"], "h = nan", id="-argv30-h = nan"),
        pytest.param(
            "",
            ["sweep-ncav", "--min", "-Infinity", "--points", "5"],
            "n_min = -inf",
            id="-argv31-n_min = -inf",
        ),
        pytest.param("", ["sweep-strain", "--min", "-NaN", "--points", "5"], "h_min = nan", id="-argv32-h_min = nan"),
        # a value that is not finite is named at parse, before any other
        # fault: the first such flag of argv
        pytest.param(
            "",
            ["simulate", "--dt", "1e300", "--duration", "nan"],
            "duration = nan",
            id="-argv33-duration = nan",
        ),
        pytest.param("", ["sweep-ncav", "--min", "nan", "--points", "0"], "n_min = nan", id="-argv34-n_min = nan"),
        # the integration time is the config key alone
        pytest.param(
            "",
            ["sensitivity", "--tmax", "36", "--points", "5"],
            "unrecognized arguments: --tmax 36",
            id="-argv35-unrecognized arguments: --tmax 36",
        ),
        pytest.param(
            "",
            ["simulate", "--strain", "1e300", "--dt", "nan"],
            "error: argument --dt: dt = nan is not finite",
            id="-argv36-error: argument --dt: dt = nan is not finite",
        ),
        pytest.param(
            "sensitivity.t_max_s = nan",
            ["sensitivity", "--points", "5"],
            "sensitivity.t_max_s = nan",
            id="sensitivity.t_max_s = nan-argv37-sensitivity.t_max_s = nan",
        ),
        # the model has one discriminant, so no command takes a convention
        # flag: it is a usage error
        pytest.param("", ["sensitivity", "--ep-convention", "eq7"], "--ep-convention", id="-argv38---ep-convention"),
        pytest.param("", ["ep-locate", "--ep-convention", "eq7"], "--ep-convention", id="-argv58---ep-convention"),
        pytest.param("", ["sweep-ncav", "--ep-convention", "eq7"], "--ep-convention", id="-argv59---ep-convention"),
        pytest.param("", ["sweep-strain", "--ep-convention", "eq7"], "--ep-convention", id="-argv60---ep-convention"),
        pytest.param("", ["simulate", "--ep-convention", "eq7"], "--ep-convention", id="-argv61---ep-convention"),
        # a strain floor outside double precision, underflow to 0 included,
        # names the factors; f_max only when the cap set the tau that failed
        pytest.param(
            "noise.temperature_k = 1e-300",
            ["sensitivity", "--points", "5"],
            "T = 1e-300 K",
            id="noise.temperature_k = 1e-300-argv39-T = 1e-300 K",
        ),
        pytest.param(
            "resonator.mass_kg = 1e300",
            ["sensitivity", "--points", "5"],
            "m = 1e+300 kg",
            id="resonator.mass_kg = 1e300-argv40-m = 1e+300 kg",
        ),
        pytest.param(
            "resonator.mass_kg = 1e-320",
            ["sensitivity", "--points", "5"],
            "resonator.mass_kg = 1e-320",
            id="resonator.mass_kg = 1e-320-argv41-resonator.mass_kg = 1e-320",
        ),
        # k_B T is subnormal, so the floor would carry about 11 significant bits
        pytest.param(
            "noise.temperature_k = 1e-290",
            ["sensitivity", "--points", "3"],
            "T = 1e-290 K",
            id="noise.temperature_k = 1e-290-argv42-T = 1e-290 K",
        ),
        pytest.param(
            "noise.temperature_k = 1e-290",
            ["sensitivity", "--points", "3"],
            "error: k_B T = 1.380649e-313 J",
            id="noise.temperature_k = 1e-290-argv43-error: k_B T = 1.380649e-313 J",
        ),
        # a subnormal strain, as an end, a grid step or the simulate flag
        pytest.param(
            "",
            ["sweep-strain", "--log", "--min", "5e-324", "--max", "1e-300", "--points", "3"],
            "h = 5e-324",
            id="-argv44-h = 5e-324",
        ),
        pytest.param(
            "",
            ["sweep-strain", "--min", "0", "--max", "1e-303", "--points", "50000"],
            "strain h = ",
            id="-argv45-strain h = ",
        ),
        pytest.param("", ["simulate", "--strain", "-1e-310"], "h = -1e-310", id="-argv46-h = -1e-310"),
        # the closed form finds the EP, but the discriminant overflows there
        pytest.param(
            "coupling.j_hz = 1.3e153",
            ["ep-locate"],
            "coupling_j = 8.168140899333462e+153",
            id="coupling.j_hz = 1.3e153-argv47-coupling_j = 8.168140899333462e+153",
        ),
        pytest.param(
            "coupling.j_hz = 1.3e153",
            ["sweep-strain"],
            "coupling_j = 8.168140899333462e+153",
            id="coupling.j_hz = 1.3e153-argv48-coupling_j = 8.168140899333462e+153",
        ),
        pytest.param(
            "coupling.j_hz = 1.3e153",
            ["simulate"],
            "coupling_j = 8.168140899333462e+153",
            id="coupling.j_hz = 1.3e153-argv49-coupling_j = 8.168140899333462e+153",
        ),
        # a cell that would be written subnormal, named by its column
        pytest.param(
            "",
            ["sweep-ncav", "--min", "0", "--max", "1e-310", "--points", "3"],
            "n_cav = 5e-311",
            id="-argv50-n_cav = 5e-311",
        ),
        pytest.param(
            "",
            ["sensitivity", "--fmin", "5e-324", "--fmax", "1e-300", "--points", "3"],
            "frequency_hz = 5e-324",
            id="-argv51-frequency_hz = 5e-324",
        ),
        # a strain response below the normal range, named by its h and J
        pytest.param(
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-300", "--max", "1e-20", "--points", "3"],
            "coupling_j = 6.283185307179586e-300: the strain response at h = 1e-300 underflows",
            id="coupling.j_hz = 1e-300-argv52-coupling_j = 6.283185307179586e-300: the strain response at h = 1e-300 underflows",
        ),
        # a subnormal config value, named by its key
        pytest.param(
            "resonator.gamma_m_hz = 1e-310",
            ["sweep-ncav", "--min", "0", "--max", "1", "--points", "2"],
            "resonator.gamma_m_hz = 1e-310",
            id="resonator.gamma_m_hz = 1e-310-argv53-resonator.gamma_m_hz = 1e-310",
        ),
        pytest.param(
            "coupling.j_hz = 1e-310",
            ["ep-locate"],
            "coupling.j_hz = 1e-310",
            id="coupling.j_hz = 1e-310-argv54-coupling.j_hz = 1e-310",
        ),
        # a flag that is not finite is refused before the EP is located
        pytest.param(
            "coupling.j_hz = 1.3e153",
            ["sweep-strain", "--max", "nan"],
            "argument --max: h_max = nan is not finite",
            id="coupling.j_hz = 1.3e153-argv55-argument --max: h_max = nan is not finite",
        ),
        # the discriminant underflows to 0 while d_approx is normal, or both do
        pytest.param(
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-16", "--max", "1e-2", "--points", "3"],
            "the strain response at h = 1e-16 underflows",
            id="coupling.j_hz = 1e-300-argv56-the strain response at h = 1e-16 underflows",
        ),
        pytest.param(
            "coupling.j_hz = 1e-300",
            ["sweep-strain", "--log", "--min", "1e-200", "--max", "1e-100", "--points", "3"],
            "the strain response at h = 1e-200 underflows",
            id="coupling.j_hz = 1e-300-argv57-the strain response at h = 1e-200 underflows",
        ),
        # a strained drive that overflows is the eigenvalues' range error, not an invalid system
        pytest.param(
            "",
            ["simulate", "--photon-number", "1e308", "--strain", "-0.4"],
            "error: n_cav = inf, inf: the eigenvalues overflow double precision",
            id="-argv62-n_cav = inf, inf: the eigenvalues overflow double precision",
        ),
        # min == max is an empty range, not a grid of one repeated photon number
        pytest.param(
            "",
            ["sweep-ncav", "--min", "1e12", "--max", "1e12"],
            "error: empty range [n_min, n_max] = [1000000000000.0, 1000000000000.0]",
            id="-argv63-empty range",
        ),
    ],
)
def test_bad_input_exits_1_without_output(run_cli, tmp_path, config, argv, named):
    # bad input is refused with one error line naming the input, and no
    # file is written
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n")
    out = tmp_path / "out.dat"
    code, stdout, err = run_cli(*argv, "--config", str(conf), "--output", str(out))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert "expected one argument" not in err
    assert stdout == ""
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


@pytest.mark.parametrize(
    "argv, first, samples",
    [
        # 1001 samples are too few for the readout, but the overflow is named first
        (["--photon-number", "1e16", "--duration", "1e-7"], 16, 1001),
        (["--photon-number", "1e16", "--duration", "1e-3"], 16, 10_000_001),
        (["--photon-number", "3e15", "--duration", "1.5e-3"], 53, 15_000_001),
        (["--strain", "-0.4", "--duration", "1e-3"], 36_655, 10_000_001),
    ],
    ids=["too-few-samples", "photon_number_1e16", "photon_number_3e15", "strain_-0.4"],
)
def test_runaway_gain_names_the_first_sample_that_overflows(run_cli, tmp_path, argv, first, samples):
    # simulate reads mode 1 only; it overflows at the sample where the
    # two-mode trajectory did, and ahead of the readout's sample-count check
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli("simulate", *argv, "--output", str(out))
    assert code == 2
    assert err == (
        f"error: the trajectory is not finite at t = {first * 1e-10:.6e} s"
        f" (sample {first} of {samples})\n"
    )
    assert stdout == ""
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak from /proc/self/status")
def test_simulate_at_its_defaults_peaks_below_140_mb(tmp_path):
    # a fresh process's maximum resident set, imports included. Measured on
    # x86-64 Linux with CPython 3.11 and numpy 2.4: 166 MB when simulate
    # built the two-mode trajectory and copied mode 1 into the padded DFT,
    # 113 MB with mode 1 written straight into it. The process reads its
    # own VmHWM, the peak since exec: Linux keeps the peak of the process
    # that spawned it, here the test run, in the child's ru_maxrss
    script = (
        "import re, sys\n"
        "from epgw.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", script, "simulate", "--output", str(tmp_path / "run.csv")]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    max_rss_mb = int(run.stderr.split()[-1]) / 1024
    assert max_rss_mb <= 140, f"{max_rss_mb:.0f} MB"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_cell_exits_1_without_output(run_cli, tmp_path, monkeypatch, fmt, value):
    # a NaN or infinite result is refused in CSV as in JSON, named by its
    # column and value, instead of being written
    from epgw import SensitivityCurve, cli

    curve = SensitivityCurve(np.array([1.0]), np.array([0.5]), np.array([value]))
    monkeypatch.setattr(cli, "sensitivity_curve", lambda *args, **kwargs: curve)
    out = tmp_path / f"sens.{fmt}"
    code, stdout, err = run_cli("sensitivity", "--format", fmt, "--output", str(out))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"h_min = {value!r}" in err
    assert stdout == ""  # no summary for a table that is refused
    assert not out.exists()


def test_refused_ep_locate_cell_prints_no_summary(run_cli, tmp_path, monkeypatch):
    # ep-locate's summary, like every command's, is printed only once its
    # cells are checked
    from epgw import cli

    monkeypatch.setattr(cli, "ep_photon_number", lambda *args: 1e-320)
    out = tmp_path / "ep.json"
    code, stdout, err = run_cli("ep-locate", "--output", str(out))
    assert code == 1
    assert err == "error: n0 = 1e-320: a written cell must be 0 or a normal double\n"
    assert stdout == ""
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
    if exit_code == 1:  # a bad config value, named by its key as README says
        assert "coupling.j_hz = 0.0" in err
