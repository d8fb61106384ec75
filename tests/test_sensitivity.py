import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epgw import (
    K_BOLTZMANN,
    ConfigParseError,
    InvalidRangeError,
    MechanicalResonator,
    NonPositiveParameterError,
    SensitivityContext,
    drive_amplitude_from_thickness,
    min_detectable_strain,
    read_overlay_csv,
    sensitivity_curve,
    thermal_frequency_noise,
)

TWO_PI = 2.0 * math.pi

CTX = SensitivityContext(
    temperature=300.0,
    sample_time=1.0,
    drive_amplitude=drive_amplitude_from_thickness(8e-8),
    quality_factor=1e5,
)
COUPLING_J = TWO_PI * 1e7


def test_thermal_noise_reference_value(device_resonator):
    assert thermal_frequency_noise(CTX, device_resonator) == pytest.approx(
        3.3183226309893602e-4, rel=1e-12
    )


def test_thermal_noise_scales_with_bath(device_resonator):
    base = thermal_frequency_noise(CTX, device_resonator)
    hot = dataclasses.replace(CTX, temperature=4.0 * CTX.temperature)
    slow = dataclasses.replace(CTX, sample_time=4.0 * CTX.sample_time)
    assert thermal_frequency_noise(hot, device_resonator) == 2.0 * base
    assert thermal_frequency_noise(slow, device_resonator) == 0.5 * base


def test_strain_floor_room_temperature(device_resonator):
    h = min_detectable_strain(CTX, device_resonator, COUPLING_J)
    assert h == pytest.approx(8.7162063409622168e-25, rel=1e-12)
    assert abs(h - 8.9e-25) / 8.9e-25 < 0.05


def test_strain_floor_cryogenic(device_resonator):
    cold = dataclasses.replace(CTX, temperature=1.0)
    h = min_detectable_strain(cold, device_resonator, COUPLING_J)
    assert h == pytest.approx(2.9054021136540723e-27, rel=1e-12)
    assert abs(h - 3.0e-27) / 3.0e-27 < 0.05


def test_strain_floor_exact_scalings(device_resonator):
    base = min_detectable_strain(CTX, device_resonator, COUPLING_J)
    hot = dataclasses.replace(CTX, temperature=2.0 * CTX.temperature)
    assert min_detectable_strain(hot, device_resonator, COUPLING_J) == 2.0 * base
    damped = dataclasses.replace(CTX, quality_factor=2.0 * CTX.quality_factor)
    assert min_detectable_strain(damped, device_resonator, COUPLING_J) == 0.5 * base
    longer = dataclasses.replace(CTX, sample_time=2.0 * CTX.sample_time)
    assert min_detectable_strain(longer, device_resonator, COUPLING_J) == 0.5 * base
    assert min_detectable_strain(CTX, device_resonator, 2.0 * COUPLING_J) == 0.25 * base


def test_noise_and_floor_are_consistent(device_resonator):
    # the two quantities come from independent formulas; they must satisfy
    # delta_omega = 4 sqrt(2) J sqrt(h_min) to rounding
    rng = np.random.default_rng(11)
    for _ in range(200):
        ctx = SensitivityContext(
            temperature=float(rng.uniform(0.01, 1000.0)),
            sample_time=10.0 ** float(rng.uniform(-3.0, 5.0)),
            drive_amplitude=10.0 ** float(rng.uniform(-9.0, -6.0)),
            quality_factor=10.0 ** float(rng.uniform(2.0, 8.0)),
        )
        res = MechanicalResonator(
            omega_m=float(rng.uniform(1e6, 1e10)),
            mass=10.0 ** float(rng.uniform(-18.0, -12.0)),
            quality_factor=ctx.quality_factor,
            thickness=1e-7,
        )
        j = 10.0 ** float(rng.uniform(3.0, 8.0))
        noise = thermal_frequency_noise(ctx, res)
        h = min_detectable_strain(ctx, res, j)
        assert abs(noise - 4.0 * math.sqrt(2.0) * j * math.sqrt(h)) <= 1e-12 * noise


def test_validation_of_inputs(device_resonator):
    with pytest.raises(NonPositiveParameterError):
        thermal_frequency_noise(dataclasses.replace(CTX, temperature=0.0), device_resonator)
    with pytest.raises(NonPositiveParameterError):
        min_detectable_strain(dataclasses.replace(CTX, sample_time=-1.0), device_resonator, COUPLING_J)
    with pytest.raises(NonPositiveParameterError):
        min_detectable_strain(CTX, device_resonator, 0.0)


@pytest.mark.parametrize(
    "change, factor",
    [({"sample_time": 1e-310}, "the integration time 1e-310 s"), ({"temperature": 1e-300}, "T = 1e-300 K")],
    ids=["subnormal_tau", "tiny_temperature"],
)
def test_strain_floor_outside_double_precision_raises(device_resonator, change, factor):
    # valid inputs whose divisor (tau) or result (k_B T) underflows to 0: an
    # InvalidRangeError naming every factor, never a ZeroDivisionError or 0
    with pytest.raises(InvalidRangeError, match="strain floor") as info:
        min_detectable_strain(dataclasses.replace(CTX, **change), device_resonator, COUPLING_J)
    message = str(info.value)
    assert factor in message and "m = 5.3e-15 kg" in message and "J = " in message


@pytest.mark.parametrize(
    "change, culprit",
    [
        # k_B T is subnormal: no integration time would help
        ({"temperature": 1e-290}, "k_B T = 1.380649e-313 J is outside"),
        ({"sample_time": 1e-310}, "the divisor 2 pi tau m omega_m x_c^2 Q 32 J^2 is outside"),
        # both terms normal, their quotient overflows
        ({"temperature": 1e300, "sample_time": 1e-300}, "the quotient k_B T / divisor is outside"),
    ],
    ids=["k_B_T", "divisor", "quotient"],
)
def test_strain_floor_error_names_the_term_that_left_the_range(device_resonator, change, culprit):
    with pytest.raises(InvalidRangeError) as info:
        min_detectable_strain(dataclasses.replace(CTX, **change), device_resonator, COUPLING_J)
    message = str(info.value)
    assert message.startswith(culprit)
    assert f"T = {change.get('temperature', CTX.temperature)!r} K" in message


def test_thermal_noise_outside_double_precision_raises(device_resonator):
    # the divisor underflows to 0 at a subnormal tau, and k_B T / den at
    # 1e-300 K on a 1 kg resonator over an hour. On the picogram device
    # k_B T at 1e-300 K is the subnormal 1.5e-323 (the exact value is
    # 1.38e-323), and the noise computed from it would be 3.3e-157.
    for ctx, res in (
        (dataclasses.replace(CTX, sample_time=1e-310), device_resonator),
        (
            dataclasses.replace(CTX, temperature=1e-300, sample_time=3600.0),
            dataclasses.replace(device_resonator, mass=1.0),
        ),
        (dataclasses.replace(CTX, temperature=1e-300, sample_time=3600.0), device_resonator),
    ):
        with pytest.raises(InvalidRangeError, match="thermal noise") as info:
            thermal_frequency_noise(ctx, res)
        assert f"m = {res.mass!r} kg" in str(info.value) and "J = " not in str(info.value)


# ---------------------------------------------------------------------------
# sensitivity curve
# ---------------------------------------------------------------------------


# the curve integrates for at most an hour
HOUR = dataclasses.replace(CTX, sample_time=3600.0)


def test_curve_shape(device_resonator):
    curve = sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1e-7, 1e3, 200)
    assert len(curve.gw_frequency) == len(curve.observation_time) == len(curve.h_min) == 200
    knee = 1.0 / (2.0 * HOUR.sample_time)
    # below the knee the integration time is the context's own, so the
    # floor is min_detectable_strain of the same context, bitwise
    floor = min_detectable_strain(HOUR, device_resonator, COUPLING_J)
    for f, tau, h_min in zip(curve.gw_frequency, curve.observation_time, curve.h_min):
        if f < knee:
            assert h_min == floor
            assert tau == HOUR.sample_time
        else:
            assert tau == pytest.approx(0.5 / f, rel=1e-15)
    assert curve.gw_frequency[0] < knee
    h = curve.h_min.tolist()
    assert all(b >= a for a, b in zip(h, h[1:]))
    # no jump at the knee: adjacent points never differ by more than the
    # grid ratio (the curve is continuous in f)
    grid_ratio = (1e3 / 1e-7) ** (1.0 / 199.0)
    assert all(b / a <= grid_ratio * (1.0 + 1e-12) for a, b in zip(h, h[1:]))


def test_curve_floor_value(device_resonator):
    curve = sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1e-7, 1e3, 64)
    floor = curve.h_min.min()
    assert floor == pytest.approx(2.4211684280450596e-28, rel=1e-12)
    assert floor == curve.h_min[0]


def test_full_period_convention_halves_the_floor(device_resonator):
    half = sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1.0, 1e3, 16)
    full = sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1.0, 1e3, 16, half_period_cap=False)
    assert np.array_equal(half.gw_frequency, full.gw_frequency)
    assert np.array_equal(half.h_min, 2.0 * full.h_min)
    assert np.array_equal(half.observation_time, 0.5 * full.observation_time)


def test_curve_from_a_subnormal_frequency(device_resonator):
    # 0.5 / f overflows to inf at f = 1e-310, so the cap is ctx.sample_time;
    # no warning escapes (tier 1 turns one into a failure)
    curve = sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1e-310, 1e3, 5)
    assert curve.observation_time[0] == HOUR.sample_time


def test_curve_is_checked_only_at_the_taus_it_uses(device_resonator):
    # the floor at t_max underflows, but above the knee no row integrates
    # that long: every tau is at most 1/(2 f_min) = 5e-3 s
    cold = dataclasses.replace(HOUR, temperature=1e-278)
    with pytest.raises(InvalidRangeError, match=r"integration time 3600\.0 s"):
        min_detectable_strain(cold, device_resonator, COUPLING_J)
    curve = sensitivity_curve(cold, device_resonator, COUPLING_J, 1e2, 1e3, 3)
    assert curve.observation_time[0] == 5e-3
    expected = [
        min_detectable_strain(dataclasses.replace(cold, sample_time=tau), device_resonator, COUPLING_J)
        for tau in curve.observation_time.tolist()
    ]
    assert curve.h_min.tolist() == expected
    # a grid that reaches the knee integrates for t_max, and is refused there
    with pytest.raises(InvalidRangeError, match=r"integration time 3600\.0 s"):
        sensitivity_curve(cold, device_resonator, COUPLING_J, 1e-7, 1e3, 3)


def _curve_refusal(ctx, resonator, coupling_j, f_min, f_max, points):
    """The text of sensitivity_curve's InvalidRangeError, written out point by
    point: k_B T, each divisor and each floor must lie in [DBL_MIN, inf),
    first at the longest tau alone, then over the whole grid, whose message
    names the shortest tau after an ``f_max = ...: `` prefix. None if all do,
    with the floors."""
    tau = np.minimum(ctx.sample_time, 0.5 / np.geomspace(f_min, f_max, points)).tolist()
    thermal = K_BOLTZMANN * ctx.temperature
    x_c, q, mass, omega_m = ctx.drive_amplitude, ctx.quality_factor, resonator.mass, resonator.omega_m
    divisors = [32.0 * (2.0 * math.pi * t * mass * omega_m * (x_c * x_c) * q) * coupling_j * coupling_j for t in tau]
    floors = [thermal / d if d else math.inf for d in divisors]

    def normal(x):
        return sys.float_info.min <= x < math.inf

    for cap, points_checked in (("", [0]), (f"f_max = {f_max!r}: ", range(len(tau)))):
        if normal(thermal) and all(normal(divisors[k]) and normal(floors[k]) for k in points_checked):
            continue
        culprit = (
            f"k_B T = {thermal!r} J" if not normal(thermal)
            else "the quotient k_B T / divisor" if all(normal(divisors[k]) for k in points_checked)
            else "the divisor 2 pi tau m omega_m x_c^2 Q 32 J^2"
        )
        return (
            f"{cap}{culprit} is outside the normal double range: no strain floor at the integration time"
            f" {min(tau[k] for k in points_checked)!r} s (T = {ctx.temperature!r} K, m = {mass!r} kg, omega_m ="
            f" {omega_m!r} rad/s, x_c = {x_c!r} m, Q = {q!r}, J = {coupling_j!r} rad/s)"
        ), None
    return None, floors


@settings(max_examples=300)
@given(
    edge=st.sampled_from(["divisor", "floor"]),
    log_tau=st.floats(-290.0, -50.0),
    log_other=st.floats(-1.0, 1.0),
    ulps=st.integers(-40, 40),
    decades=st.floats(0.0, 20.0),
    log_knee=st.floats(-1.0, 25.0),
    points=st.integers(2, 6),
)
# inner points of a grid whose ends are adjacent floats pass f_max, so tau[-1] is not the shortest tau
@example(edge="floor", log_tau=-257.0, log_other=0.0, ulps=0, decades=0.0, log_knee=0.0, points=3)
def test_curve_is_refused_exactly_where_a_pointwise_check_refuses_it(
    device_resonator, edge, log_tau, log_other, ulps, decades, log_knee, points
):
    # tau_edge is the tau at which the divisor falls below DBL_MIN (a weak
    # coupling) or the floor rises above DBL_MAX (a hot bath); f_max, a few
    # floats either side of 1/(2 tau_edge), puts the curve's shortest tau
    # across that edge. Below f_max the grid spans ``decades`` and the knee
    # sits at tau_edge 10^log_knee, so the longest tau passes or fails too.
    # Every partial product of the divisor stays normal.
    tau_edge = 10.0**log_tau
    resonator = dataclasses.replace(device_resonator, mass=device_resonator.mass * 10.0 ** (5.0 * log_other))
    den_per_tau = 2.0 * math.pi * resonator.mass * resonator.omega_m * CTX.drive_amplitude**2 * CTX.quality_factor
    if edge == "divisor":
        coupling_j = math.sqrt(sys.float_info.min / (32.0 * den_per_tau * tau_edge))
        temperature = 10.0 ** (-10.0 + 10.0 * log_other)
    else:
        coupling_j = COUPLING_J
        temperature = sys.float_info.max * (32.0 * den_per_tau * tau_edge * coupling_j**2) / K_BOLTZMANN
    f_max = (np.float64(0.5 / tau_edge).view(np.int64) + ulps).view(np.float64).item()
    f_min = min(f_max / 10.0**decades, math.nextafter(f_max, 0.0))
    ctx = dataclasses.replace(CTX, temperature=temperature, sample_time=tau_edge * 10.0**log_knee)
    expected, floors = _curve_refusal(ctx, resonator, coupling_j, f_min, f_max, points)
    if expected is None:
        curve = sensitivity_curve(ctx, resonator, coupling_j, f_min, f_max, points)
        assert curve.h_min.tolist() == floors
    else:
        with pytest.raises(InvalidRangeError) as info:
            sensitivity_curve(ctx, resonator, coupling_j, f_min, f_max, points)
        assert str(info.value) == expected


def test_curve_range_errors(device_resonator):
    with pytest.raises(InvalidRangeError):
        sensitivity_curve(HOUR, device_resonator, COUPLING_J, 0.0, 1e3, 10)
    with pytest.raises(InvalidRangeError):
        sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1e3, 1e-7, 10)
    with pytest.raises(InvalidRangeError):
        sensitivity_curve(HOUR, device_resonator, COUPLING_J, 1e-7, 1e3, 1)
    # the integration time is the context's, checked with the rest of it
    with pytest.raises(NonPositiveParameterError):
        sensitivity_curve(dataclasses.replace(CTX, sample_time=0.0), device_resonator, COUPLING_J, 1e-7, 1e3, 10)


# ---------------------------------------------------------------------------
# overlay files
# ---------------------------------------------------------------------------


def test_overlay_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    text = "frequency_hz,strain\n1e-3,4.5e-25\n2.0,1.25e-22\n0,2.2250738585072014e-308\n"
    # as written, with a byte-order mark, and without the final newline
    for content in (text, "\ufeff" + text, text[:-1]):
        path.write_text(content, encoding="utf-8")
        table = read_overlay_csv(str(path))
        assert table.dtype == np.float64 and table.shape == (3, 2)
        assert table.tolist() == [[1e-3, 4.5e-25], [2.0, 1.25e-22], [0.0, sys.float_info.min]]


def test_overlay_header_is_normalized(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("Frequency_Hz , STRAIN\n1.0,2.0\n")
    assert read_overlay_csv(str(path)).tolist() == [[1.0, 2.0]]


def test_overlay_header_only_is_an_empty_table(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("frequency_hz,strain\n\n")
    table = read_overlay_csv(str(path))
    assert table.dtype == np.float64 and table.shape == (0, 2)


def test_overlay_rejects_wrong_header(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("freq,h\n1.0,2.0\n")
    with pytest.raises(ConfigParseError) as info:
        read_overlay_csv(str(path))
    assert info.value.line == 1


def test_overlay_rejects_bad_cell(tmp_path):
    path = tmp_path / "curve.csv"
    for cell in ("oops", "nan", "-inf", "5e-324", "-1e-310"):
        path.write_text(f"frequency_hz,strain\n1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(ConfigParseError) as info:
            read_overlay_csv(str(path))
        assert info.value.line == 4  # blank line counted, row numbers preserved
    # a quoted cell that spans two lines: the bad cell is still on line 4
    path.write_text('frequency_hz,strain\n"1\n",1e-24\n1.0,x\n')
    with pytest.raises(ConfigParseError) as info:
        read_overlay_csv(str(path))
    assert info.value.line == 4


HEADER = "frequency_hz,strain\n"


@pytest.mark.parametrize(
    "content, line, text",
    [
        (HEADER + "1.0,1e-310\n2.0,x\n", 2, "cell is not 0 or a normal double: '1.0,1e-310'"),
        (HEADER + "1.0,x\n2.0,1e-310\n", 2, "non-numeric cell"),
        (HEADER + "1.0,2.0\n3.0,inf\n4.0,2.0,1.0\n", 3, "cell is not 0 or a normal double: '3.0,inf'"),
        (HEADER + "1.0,2.0,1.0\n3.0,inf\n", 2, "expected 2 columns, got 3"),
        (HEADER + "1.0,\n", 2, "non-numeric cell: could not convert string to float: ''"),
        (HEADER + "1.0,-\n", 2, "non-numeric cell: could not convert string to float: '-'"),
        (HEADER + "1.0,2.0\n1e999,2.0\n", 3, "cell is not 0 or a normal double: '1e999,2.0'"),
        (HEADER + "1.0,2.0\n\n3.0,1e-310\n", 4, "cell is not 0 or a normal double: '3.0,1e-310'"),
        (HEADER + "1.0,2.0\n3.0,x", 3, "non-numeric cell: could not convert string to float: 'x'"),
        ("\ufeff" + HEADER + "1.0,2.0\n3.0,5e-324\n", 3, "cell is not 0 or a normal double: '3.0,5e-324'"),
        (HEADER + "1." + "0" * 131_071 + ",2.0\n", 2, "field larger than field limit (131072)"),
        (HEADER + "1.0,2.0,3.0\n4.0\n", 2, "expected 2 columns, got 3"),
        (HEADER + "1.0\n2.0\n", 2, "expected 2 columns, got 1"),
        (HEADER + "1.0,1e-24\x0c\n2.0,1e-23\u2028\n3.0,x\n", 4, "non-numeric cell"),
    ],
    ids=[
        "bad-value-first", "non-numeric-first", "bad-value-before-wide-row", "wide-row-first",
        "empty-cell", "lone-sign", "overflow-to-inf", "blank-line", "no-final-newline", "byte-order-mark",
        "cell-over-field-limit", "rows-whose-cells-pair-up", "one-cell-rows", "form-feed-and-u2028-end-no-line",
    ],
)
def test_overlay_names_the_first_bad_row(tmp_path, content, line, text):
    # the cells are checked as one array once parsed, yet the error names
    # the first bad row of the file, whatever is wrong with it; a file
    # that looks plain but is not gives the csv module's error and line
    path = tmp_path / "curve.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigParseError, match=re.escape(text)) as info:
        read_overlay_csv(str(path))
    assert info.value.line == line


def test_overlay_rejects_wrong_width(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("frequency_hz,strain\n1.0,2.0,3.0\n")
    with pytest.raises(ConfigParseError) as info:
        read_overlay_csv(str(path))
    assert info.value.line == 2


def test_overlay_rejects_empty_file(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("")
    with pytest.raises(ConfigParseError) as info:
        read_overlay_csv(str(path))
    assert info.value.line == 1


def test_overlay_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_overlay_csv(str(tmp_path / "missing.csv"))
