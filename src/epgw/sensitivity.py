"""Thermomechanical noise floor and minimum detectable strain.

The only noise source modeled is thermal frequency fluctuation of a
driven resonator,

    delta_omega = sqrt(k_B T / (2 pi tau m omega_m <x_c^2> Q)),

and the strain floor follows by equating it to the splitting response
4 sqrt(2) J sqrt(h). Shot noise, backaction and seismic contributions are
out of scope. ``SensitivityContext.sample_time`` is the one integration
time: ``min_detectable_strain`` uses it as given, and ``sensitivity_curve``
caps it per frequency by the signal period, evaluating its frequency grid
as one array and returning one SensitivityCurve of arrays. All three
evaluate one kernel, ``_thermal_floor``, the module's one range check: a
noise or floor that is not a normal double (``core._normal``) raises
InvalidRangeError naming the term at fault, tau and every factor; a curve
is checked at the extremes of its tau.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigParseError,
    InvalidRangeError,
    K_BOLTZMANN,
    MechanicalResonator,
    SensitivityContext,
    _decode_utf8,
    _normal,
    _zero_or_normal,
    require_positive,
    sweep_grid,
)


@dataclass(frozen=True)
class SensitivityCurve:
    """The sensitivity curve, one array per column, over the frequency grid.

    Attributes:
        gw_frequency: Signal frequencies (Hz), increasing.
        observation_time: Integration time tau used at each frequency (s).
        h_min: Minimum detectable strain at each frequency (dimensionless).
    """

    gw_frequency: np.ndarray
    observation_time: np.ndarray
    h_min: np.ndarray


def _validate(ctx: SensitivityContext, resonator: MechanicalResonator) -> None:
    require_positive("temperature", ctx.temperature)
    require_positive("sample_time", ctx.sample_time)
    require_positive("drive_amplitude", ctx.drive_amplitude)
    require_positive("quality_factor", ctx.quality_factor)
    require_positive("mass", resonator.mass)
    require_positive("omega_m", resonator.omega_m)


def thermal_frequency_noise(ctx: SensitivityContext, resonator: MechanicalResonator) -> float:
    """Thermal frequency fluctuation delta_omega (rad/s) after time tau."""
    _validate(ctx, resonator)
    return math.sqrt(_thermal_floor(ctx, resonator, None, ctx.sample_time))


def min_detectable_strain(
    ctx: SensitivityContext, resonator: MechanicalResonator, coupling_j: float
) -> float:
    """Strain at which the splitting equals the thermal noise floor.

    h_min = k_B T / (64 pi tau m omega_m <x_c^2> Q J^2); equivalently the
    h solving 4 sqrt(2) J sqrt(h) = delta_omega, so the consistency
    contract thermal_frequency_noise(ctx) == 4 sqrt(2) J sqrt(h_min)
    holds to rounding.
    """
    _validate(ctx, resonator)
    require_positive("coupling_j", coupling_j)
    return _thermal_floor(ctx, resonator, coupling_j, ctx.sample_time)


def _thermal_floor(ctx: SensitivityContext, resonator: MechanicalResonator, coupling_j, tau, cap: str = ""):
    """k_B T / den, den = 2 pi tau m omega_m <x_c^2> Q, the squared noise;
    or, given coupling_j, the strain floor k_B T / (32 den J^2). An array tau
    runs unchecked under the caller's np.errstate (sensitivity_curve checks
    its extremes). At a float tau a k_B T, divisor or result that is not _normal
    raises InvalidRangeError, prefixed by ``cap``, naming it, tau and every factor."""
    mean_square_drive = ctx.drive_amplitude * ctx.drive_amplitude
    den = 2.0 * math.pi * tau * resonator.mass * resonator.omega_m * mean_square_drive * ctx.quality_factor
    divisor = den if coupling_j is None else 32.0 * den * coupling_j * coupling_j
    thermal = K_BOLTZMANN * ctx.temperature
    if isinstance(tau, np.ndarray):
        return thermal / divisor
    if _normal(thermal) and _normal(divisor):
        value = thermal / divisor
        if _normal(value):
            return value
    what, coupling = ("thermal noise", "") if coupling_j is None else ("strain floor", f", J = {coupling_j!r} rad/s")
    culprit = (
        f"k_B T = {thermal!r} J" if not _normal(thermal)
        else "the quotient k_B T / divisor" if _normal(divisor)
        else "the divisor 2 pi tau m omega_m x_c^2 Q" + (" 32 J^2" if coupling else "")
    )
    raise InvalidRangeError(
        f"{cap}{culprit} is outside the normal double range: no {what} at the integration time"
        f" {float(tau)!r} s (T = {ctx.temperature!r} K, m = {resonator.mass!r} kg, omega_m ="
        f" {resonator.omega_m!r} rad/s, x_c = {ctx.drive_amplitude!r} m, Q = {ctx.quality_factor!r}{coupling})"
    )


def sensitivity_curve(
    ctx: SensitivityContext,
    resonator: MechanicalResonator,
    coupling_j: float,
    f_min: float,
    f_max: float,
    points: int,
    half_period_cap: bool = True,
) -> SensitivityCurve:
    """Strain floor over a log-spaced signal-frequency grid.

    At each frequency f the integration time ctx.sample_time is capped by
    the signal itself: tau(f) = min(ctx.sample_time, 1/(2f)), a half
    period, since a strain signal averages itself out beyond that. Pass
    half_period_cap=False for the full-period convention
    tau(f) = min(ctx.sample_time, 1/f). The curve is flat at
    min_detectable_strain(ctx) below the knee f = 1/(2 ctx.sample_time)
    and rises linearly in f above it. The grid is evaluated as one array,
    and each element of ``h_min`` is bit for bit min_detectable_strain at
    its tau.

    Raises:
        NonPositiveParameterError: invalid context, resonator or coupling.
        InvalidRangeError: unusable frequency range (see core.sweep_grid),
            or a strain floor that is not a normal double at a tau the grid
            uses; f_max is named when the floor at the longest, tau[0], is
            normal, so its cap set the tau.
    """
    _validate(ctx, resonator)
    require_positive("coupling_j", coupling_j)
    grid = sweep_grid("f", f_min, f_max, points, log=True)
    with np.errstate(all="ignore"):
        tau = np.minimum(ctx.sample_time, (0.5 if half_period_cap else 1.0) / grid)
        # the floor is monotone in tau, so tau's extremes bound the rest; they
        # need not be its ends, as geomspace's inner points may pass them by an ulp
        _thermal_floor(ctx, resonator, coupling_j, float(tau[0]))
        for t in (tau.min(), tau.max()):
            _thermal_floor(ctx, resonator, coupling_j, float(t), cap=f"f_max = {f_max!r}: ")
        h_min = _thermal_floor(ctx, resonator, coupling_j, tau)
    return SensitivityCurve(grid, tau, h_min)


def _plain_overlay(data: bytes):
    """The (n, 2) table of an overlay file's bytes in the plain layout, else
    None. The plain layout: an optional UTF-8 byte-order mark, the header
    line ``frequency_hz,strain``, then newline-ended lines of two cells of
    ``0-9+-.eE``. csv.reader splits such bytes as bytes.split does, and
    float reads a bytes cell as the same str does, so the table is the csv
    path's. A cell over the csv field limit, or one that float or
    _zero_or_normal refuses, gives None too: the csv path names it."""
    header, _, body = data.removeprefix(codecs.BOM_UTF8).partition(b"\n")
    if header != b"frequency_hz,strain":
        return None
    # one comma and one newline a line once the number bytes are deleted
    if body.translate(None, b"0123456789+-.eE") != b",\n" * body.count(b"\n"):
        return None
    cells = body.replace(b"\n", b",").split(b",")[:-1]
    if max(map(len, cells), default=0) > csv.field_size_limit():
        return None
    try:
        pairs = np.fromiter(map(float, cells), float, len(cells)).reshape(-1, 2)
    except ValueError:
        return None
    return pairs if _zero_or_normal(pairs).all() else None


def read_overlay_csv(path: str) -> np.ndarray:
    """Read a comparison curve: CSV with header ``frequency_hz, strain``.

    Returns a float64 array of shape (n, 2), one (frequency_hz, strain) row
    per data row in file order, which may be any order; a header-only file
    gives shape (0, 2). A UTF-8 byte-order mark is skipped.

    The path is read once, so it may be a pipe. A file in the plain layout
    (``_plain_overlay``) is parsed from its bytes; every other file, and a
    plain one with a bad cell, is decoded from the same bytes and streamed
    to the csv module, so that one path raises every error below.

    Raises:
        ConfigParseError: a byte that is not UTF-8, named before any other
            fault; a line the csv module refuses (a cell longer than its
            field limit), a missing/wrong header, or a cell that is not a
            number, or is not 0 or a normal double (NaN, inf or subnormal;
            see core._zero_or_normal). Lines end at CR LF, CR or LF.
        OSError: unreadable file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pairs = _plain_overlay(data)
    if pairs is not None:
        return pairs
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]  # a quoted cell may span lines
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell over csv.field_size_limit, say
        _decode_utf8(data)  # names a byte that is not UTF-8 first, so it always raises on a UnicodeDecodeError
        raise ConfigParseError(reader.line_num, str(exc)) from None
    if not rows:
        raise ConfigParseError(1, "empty overlay file; expected header 'frequency_hz, strain'")
    header_no, header = rows[0]
    if [cell.strip().lower() for cell in header] != ["frequency_hz", "strain"]:
        raise ConfigParseError(header_no, f"expected header 'frequency_hz, strain', got {','.join(header)!r}")
    table: list[tuple[float, float]] = []
    fault = None  # the first row that is not two numbers
    for line_no, row in rows[1:]:
        if len(row) != 2:
            fault = ConfigParseError(line_no, f"expected 2 columns, got {len(row)}")
            break
        try:
            table.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            fault = ConfigParseError(line_no, f"non-numeric cell: {exc}")
            break
    # the rows before the fault, checked at once; a bad one is named first
    pairs = np.array(table).reshape(-1, 2)
    refused = np.flatnonzero(~_zero_or_normal(pairs).all(axis=1))
    if len(refused):
        line_no, row = rows[1 + refused[0]]
        raise ConfigParseError(line_no, f"cell is not 0 or a normal double: {','.join(row)!r}")
    if fault is not None:
        raise fault
    return pairs
