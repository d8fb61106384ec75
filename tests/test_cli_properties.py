"""Property tests of the command line over the config space.

Every subcommand runs on a small grid (and ``simulate`` on an explicit
short time grid), so one example costs milliseconds.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from epgw import EpgwError, Phase  # noqa: E402
from epgw.cli import CONFIG_DEFAULTS, RunConfig, _table_rows, main, parse_config_text, render_json  # noqa: E402
from epgw.core import _zero_or_normal  # noqa: E402

# log10 range of each config value, around the reference device. A key
# left out of an example keeps its default (zero for gamma_m).
LOG_RANGES = {
    "resonator.frequency_hz": (8.0, 10.0),
    "resonator.mass_kg": (-16.0, -13.0),
    "resonator.thickness_m": (-8.0, -6.0),
    "resonator.quality_factor": (3.0, 7.0),
    "resonator.gamma_m_hz": (0.0, 6.0),
    "cavity.length_m": (-5.0, -3.0),
    "cavity.decay_rate_hz": (7.0, 9.0),
    "coupling.j_hz": (5.0, 8.0),
    "noise.temperature_k": (-3.0, 3.0),
    "sensitivity.t_max_s": (0.0, 5.0),
}
assert set(LOG_RANGES) == set(CONFIG_DEFAULTS)

COMMANDS = ["ep-locate", "sweep-ncav", "sweep-strain", "sensitivity", "simulate"]
NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


@st.composite
def extreme_configs(draw):
    """Config values for one to three keys, anywhere from 1e-300 to 1e300."""
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_DEFAULTS)), min_size=1, max_size=3, unique=True))
    return {key: 10.0 ** draw(st.floats(min_value=-300.0, max_value=300.0)) for key in keys}


@st.composite
def finite_configs(draw):
    """Config text setting a random subset of keys to finite values."""
    values = {}
    for key, (lo, hi) in LOG_RANGES.items():
        if draw(st.booleans()):
            values[key] = 10.0 ** draw(st.floats(min_value=lo, max_value=hi))
    return values


def _argv(command, values, photon_number=None):
    argv = [command]
    if command == "simulate":
        # a tenth of the sampling-guard step, over ~1100 samples
        dt = 0.01 / values.get("resonator.frequency_hz", CONFIG_DEFAULTS["resonator.frequency_hz"])
        argv += ["--dt", repr(dt), "--duration", repr(1100.0 * dt)]
        if photon_number is not None:
            argv += ["--photon-number", repr(photon_number)]
    elif command != "ep-locate":
        argv += ["--points", "8"]
    return argv


def _run(command, values, fmt="csv", argv=None):
    """Run one command on the config, with the flags of _argv or ``argv``;
    (exit code, output text or None, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "run.conf")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value!r}\n" for key, value in values.items())
        out = os.path.join(tmp, "out.dat")
        argv = (argv or _argv(command, values)) + ["--config", conf, "--output", out, "--format", fmt]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if not os.path.exists(out):
            return code, None, err.getvalue()
        with open(out, encoding="utf-8") as fh:
            return code, fh.read(), err.getvalue()


@settings(max_examples=25)
@given(
    values=finite_configs(),
    photon_number=st.none() | st.floats(min_value=9.0, max_value=14.0).map(lambda e: 10.0**e),
    command=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(["csv", "json"]),
)
# runaway gain: the trajectory overflows at the first sample
@example(
    values={"cavity.length_m": 1e-05, "resonator.frequency_hz": 1e8},
    photon_number=1e14,
    command="simulate",
    fmt="csv",
)
def test_finite_accepted_config_succeeds_or_is_a_domain_error(values, photon_number, command, fmt):
    # simulate's drive, when drawn, is its --photon-number
    try:
        parse_config_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    except EpgwError:
        assume(False)
    code, text, _ = _run(command, values, fmt, _argv(command, values, photon_number))
    assert code in (0, 2)
    if code == 0:
        assert text is not None
    if text is not None:
        assert not NON_FINITE.search(text)


@settings(max_examples=40)
@given(
    values=finite_configs(),
    key=st.sampled_from(sorted(CONFIG_DEFAULTS)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    command=st.sampled_from(COMMANDS),
)
def test_any_non_finite_value_exits_1(values, key, bad, command):
    code, text, _ = _run(command, {**values, key: bad})
    assert code == 1
    assert text is None


def _subnormal_cells(text, fmt):
    """The float cells of an output file, its table and overlays, that are
    neither 0 nor a normal double."""
    if fmt == "json":
        payload = json.loads(text)
        tables = [payload["rows"], *payload.get("overlays", {}).values()]
        cells = [cell for table in tables for row in table for cell in row]
    else:
        cells = [cell for line in text.splitlines() if not line.startswith("#") for cell in line.split(",")]
    floats = []
    for cell in cells:
        with contextlib.suppress(TypeError, ValueError):  # a column or phase name
            floats.append(float(cell))
    return [x for x in floats if 0.0 < abs(x) < sys.float_info.min]


def _table(text, fmt):
    """The data rows of an output file, as lists of cells; floats as
    floats."""
    if fmt == "json":
        return json.loads(text)["rows"]
    return [[float(cell) for cell in line.split(",")] for line in text.splitlines() if line[:1].isdigit()]


@settings(max_examples=100)
@given(
    values=extreme_configs(),
    command=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(["csv", "json"]),
    argv=st.none(),
)
# the strain floor rounds to 0: k_B T underflows, or the divisor overflows
@example(values={"noise.temperature_k": 1e-300}, command="sensitivity", fmt="csv", argv=None)
@example(values={"resonator.mass_kg": 1e300}, command="sensitivity", fmt="json", argv=None)
# d_approx = 4 sqrt(2) J sqrt(h) is subnormal across the default strain grid
@example(values={"coupling.j_hz": 1e-300}, command="sweep-strain", fmt="csv", argv=None)
# d_approx is normal on this grid, but the discriminant underflows to 0
@example(
    values={"coupling.j_hz": 1e-300},
    command="sweep-strain",
    fmt="csv",
    argv=["sweep-strain", "--log", "--min", "1e-16", "--max", "1e-2", "--points", "3"],
)
def test_extreme_finite_config_exits_cleanly(values, command, fmt, argv):
    # out-of-range results of valid inputs are errors with one message,
    # never a traceback, and a written file holds no inf or nan, no
    # subnormal cell, nor a strain floor of 0, nor at a strain h != 0 a
    # splitting of 0: d_approx > 0, and d_exact or linewidth_split > 0
    code, text, err = _run(command, values, fmt, argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert text is not None and not NON_FINITE.search(text)
        assert not _subnormal_cells(text, fmt)
        if command == "sensitivity":
            assert all(row[2] > 0.0 for row in _table(text, fmt))
        if command == "sweep-strain":
            for h, d_exact, d_approx, linewidth_split, _ in _table(text, fmt):
                assert h == 0.0 or (d_approx > 0.0 and d_exact + linewidth_split > 0.0), (h, d_exact)
    else:
        assert err.startswith("error:") and err.count("\n") == 1


# Each command's numeric flags: a typical value, and the name under which an
# error reports the flag's value. ep-locate has none.
FLAGS = {
    "sweep-ncav": {"--min": (1e11, "n_min"), "--max": (5e12, "n_max")},
    "sweep-strain": {"--min": (1e-26, "h_min"), "--max": (1e-20, "h_max")},
    "sensitivity": {"--fmin": (1e-7, "f_min"), "--fmax": (1e3, "f_max")},
    "simulate": {
        "--strain": (1e-4, "h"),
        "--photon-number": (1e12, "photon_number"),
        "--duration": (2e-7, "duration"),
        "--dt": (5e-11, "dt"),
    },
}
POINTS = [0, 1, 2, 8, (1 << 20) + 1]


def _flag_values(flag, typical):
    """Absent (None), typical, +-1e+-300, the smallest subnormal, 0,
    negative, nan and +-inf. A simulate run keeps an explicit duration and
    a dt of at least 1e-11, so an accepted run has at most 2e4 samples:
    others are refused before any allocation."""
    values = [None, typical, 5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.0, -typical, math.nan, math.inf, -math.inf]
    if flag == "--duration":
        values.remove(None)
    if flag == "--dt":
        values[values.index(1e-300)] = 1e-11
    return values


@st.composite
def flag_draws(draw, command):
    """({flag: value} for the flags given, argv)."""
    drawn = {}
    for flag, (typical, _) in FLAGS[command].items():
        value = draw(st.sampled_from(_flag_values(flag, typical)))
        if value is not None:
            drawn[flag] = value
    # "--strain -inf" as two words, the spelling the parser must not take
    # for an option
    argv = [command] + [word for flag, value in drawn.items() for word in (flag, repr(value))]
    if command != "simulate":
        argv += ["--points", str(draw(st.sampled_from(POINTS)))]
        if command != "sensitivity" and draw(st.booleans()):
            argv.append("--log")
    return drawn, argv


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=150)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_every_numeric_flag_exits_cleanly(command, data, fmt):
    # no traceback (main raises nothing), an exit code from README's table,
    # a non-finite value exits 1 naming the first such flag of argv and its
    # value, and a written file holds no nan or inf and no subnormal cell
    drawn, argv = data.draw(flag_draws(command))
    code, text, err = _run(command, {}, fmt, argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert text is not None and not NON_FINITE.search(text)
        assert not _subnormal_cells(text, fmt)
    else:
        assert text is None
        assert err.startswith("error:") and err.count("\n") == 1
    non_finite = [flag for flag, value in drawn.items() if not math.isfinite(value)]
    if non_finite:
        flag = non_finite[0]  # drawn keeps argv order
        assert code == 1
        assert err.startswith(f"error: argument {flag}: {FLAGS[command][flag][1]} = {drawn[flag]!r} "), err


# A table as the commands hand it to the writers, columns of one length:
# any finite float64 (+-0, subnormals and +-1.8e308 included), any int64,
# and phases.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    cells = [st.lists(elements, min_size=n, max_size=n) for elements in (FINITE, st.integers(-(2**63), 2**63 - 1))]
    phases = draw(st.lists(st.sampled_from(list(Phase)), min_size=n, max_size=n))
    return {
        "x": np.array(draw(cells[0]), dtype=float),
        "peak": np.array(draw(cells[1]), dtype=np.int64),
        "phase": np.array(phases, dtype=object),
    }


# Bit patterns of the values at the rule's edges: +-0, +-inf, nan, the
# smallest normal and the largest subnormal, each with either sign.
EDGE_BITS = np.array(
    [0.0, math.inf, math.nan, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)]
).view(np.uint64).tolist()
EDGE_BITS += [bits | 1 << 63 for bits in EDGE_BITS]


@settings(max_examples=300)
@given(bits=st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS), max_size=20))
@example(bits=EDGE_BITS)
def test_zero_or_normal_is_the_edge_rule(bits):
    # any float64, by its bit pattern: a float gets the rule's bool, and an
    # array the same answers elementwise
    floats = np.array(bits, dtype=np.uint64).view(np.float64)
    expected = [x == 0 or (math.isfinite(x) and abs(x) >= sys.float_info.min) for x in floats.tolist()]
    answers = [_zero_or_normal(x) for x in floats.tolist()]
    assert all(type(answer) is bool for answer in answers)
    assert answers == expected
    assert _zero_or_normal(floats).tolist() == expected


# The characters of numbers and of CSV and line syntax, NUL and the
# byte-order mark; and, when drawn, a valid start of each kind of file, so
# the text also reaches the overlay's cells and a config value.
TEXT_ALPHABET = "0123456789,.e-+\"\r\n\x00\ufeff"
TEXT_STARTS = {"--overlay": "frequency_hz,strain\n", "--config": "coupling.j_hz = "}


@settings(max_examples=120)
@given(text=st.text(TEXT_ALPHABET, max_size=40), flag=st.sampled_from(sorted(TEXT_STARTS)), start=st.booleans())
# a cell one character longer than the csv module's default field limit
@example(text="1" * 131_073 + ",1e-24\n", flag="--overlay", start=True)
def test_no_overlay_or_config_text_makes_main_raise(text, flag, start):
    # main returns an exit code from README's table for any such file: on
    # failure one error line and no output file
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input.txt"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TEXT_STARTS[flag] * start + text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sensitivity", "--points", "2", flag, path, "--output", out])
        assert code in (0, 1, 2), err.getvalue()
        if code:
            assert not os.path.exists(out)
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def _json(*args):
    """render_json's file as text: its chunks joined and decoded."""
    return b"".join(render_json(*args)).decode()


def _reprs(table):
    return [[repr(cell) for cell in row] for row in table]


EDGE_TABLE = {
    "x": np.array(EDGE_FLOATS),
    "peak": np.array([0, -1, 2**63 - 1, -(2**63), 1, 2, 3]),
    "phase": np.array([*Phase, Phase.BROKEN, Phase.PT_SYMMETRIC, Phase.BROKEN, Phase.PT_SYMMETRIC], dtype=object),
}


@settings(max_examples=200)
@given(
    table=tables(),
    overlay=st.lists(st.tuples(FINITE, FINITE), max_size=4),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    at=st.integers(min_value=0, max_value=8),
)
@example(table=EDGE_TABLE, overlay=[(5e-324, -0.0)], bad=math.nan, at=1)
def test_json_cells_round_trip_exactly(table, overlay, bad, at):
    # json.loads gives back every cell with the same repr, a phase as its
    # value, and a table holding NaN or +-inf is refused rather than written
    overlays = {"reference.csv": np.array(overlay).reshape(-1, 2)} if overlay else None
    text = _json(RunConfig(), "sensitivity", {"points": 3}, list(table), _table_rows(table), overlays)
    payload = json.loads(text)
    rows = zip(table["x"].tolist(), table["peak"].tolist(), [phase.value for phase in table["phase"]])
    assert _reprs(payload["rows"]) == _reprs(rows)
    assert _reprs(payload.get("overlays", {}).get("reference.csv", [])) == _reprs(overlay)
    at = min(at, len(table["x"]))
    poisoned = {name: np.insert(column, at, cell) for (name, column), cell in zip(table.items(), (bad, 0, Phase.BROKEN))}
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json(RunConfig(), "sensitivity", {"points": 3}, list(table), _table_rows(poisoned), overlays)
