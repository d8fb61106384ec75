"""Domain types and validation for the coupled-resonator sensor model.

All quantities are SI. Frequencies, damping rates and cavity decay rates
are angular (rad/s) everywhere inside the library; the Hz values used in
config files are converted at the interface layer only.

Validation happens once, with the validators below: a ``CoupledSystem``
checks itself as it is built, ``cli.parse_config`` checks a config, and
the entry points of ``spectral``, ``dynamics`` and ``sensitivity`` check
their other arguments (finite values, signs, ranges) before any per-point
work. The leaf formulas of ``spectral`` check no input. Valid but extreme
values that overflow the model's arithmetic are rejected where that
arises, as InvalidRangeError (see ``spectral``). Every sign rule, the
config's included, is the one check ``_check``; every normal-double rule is
``_normal``, and configs, strains and cells pass ``_zero_or_normal`` (0 or it).
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

# CODATA 2018. Fixed by definition of the SI; not user-configurable.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s
K_BOLTZMANN = 1.380649e-23  # J / K

# rms displacement of a driven doubly-clamped beam at the critical
# (onset-of-nonlinearity) amplitude, as a fraction of beam thickness.
CRITICAL_AMPLITUDE_FACTOR = 0.53


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class EpgwError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command line's exit status for the error: 1 for
    bad input (usage, config, parameter and range errors), 2 for domain
    errors, where valid input has no answer; those derive from the one
    base ``_DomainError``.
    """

    exit_code = 1


class NonPositiveParameterError(EpgwError):
    """A physical parameter is not finite or violates its sign constraint.

    Attributes:
        name: Field name, e.g. ``"mass"``.
        value: The offending value.
        where: Optional location qualifier, e.g. ``"resonator_1"``.
    """

    def __init__(self, name: str, value: float, where: str | None = None):
        self.name = name
        self.value = value
        self.where = where
        prefix = f"{where}." if where else ""
        problem = "violates its positivity constraint" if math.isfinite(value) else "is not finite"
        super().__init__(f"{prefix}{name} = {value!r} {problem}")


class ValidationError(EpgwError):
    """One or more parameters of a system are invalid.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations: list[EpgwError]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} invalid parameter(s): {lines}")


class _DomainError(EpgwError):
    """Valid input that has no answer: the one class that sets exit 2."""

    exit_code = 2


class NoEPError(_DomainError):
    """No photon number brings the system to an exceptional point."""


class ZeroCouplingError(_DomainError):
    """The optomechanical tuning knob is absent: J = 0, or g0**2 * phi is the
    same in both arms, so the photon number does not move the discriminant."""


class NotAtEPError(_DomainError):
    """An operation that assumes exceptional-point bias was called away from one."""


class InvalidRangeError(EpgwError):
    """A sweep or integration range is empty, reversed, or otherwise unusable."""


class RunawayGainError(_DomainError):
    """A trajectory sample is not finite: valid input overflows in runaway gain, or a caller gave one."""


class SamplingTooCoarseError(_DomainError):
    """The requested time step undersamples the fastest eigenfrequency."""


class TooFewSamplesError(_DomainError):
    """The trajectory is too short for a meaningful spectral estimate."""


class ConfigParseError(EpgwError):
    """A line of a config file or an overlay CSV could not be parsed; a byte
    that is not UTF-8 is named before any other fault in the file."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class UnknownKeyError(EpgwError):
    """A config key is not one of the recognized settings."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key: {key!r}")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


class Phase(Enum):
    """Spectral phase of a supermode pair.

    PT_SYMMETRIC: eigenvalues split in real frequency (below threshold).
    BROKEN: eigenvalues split in linewidth instead (above threshold).
    EXCEPTIONAL_POINT: |disc| <= ep_tolerance(J), the one EP rule.
    """

    PT_SYMMETRIC = "pt_symmetric"
    BROKEN = "broken"
    EXCEPTIONAL_POINT = "exceptional_point"


@dataclass(frozen=True)
class MechanicalResonator:
    """A single mechanical mode.

    Attributes:
        omega_m: Angular resonance frequency (rad/s).
        mass: Effective mass (kg).
        quality_factor: Mechanical quality factor (dimensionless).
        thickness: Beam thickness (m); sets the critical drive amplitude.
        gamma_m: Intrinsic mechanical damping rate (rad/s). Zero means the
            mode is treated as lossless apart from optical damping.
    """

    omega_m: float
    mass: float
    quality_factor: float
    thickness: float
    gamma_m: float = 0.0


@dataclass(frozen=True)
class OpticalCavity:
    """A driven optical cavity coupled to one mechanical mode.

    Attributes:
        length: Cavity length (m).
        kappa: Optical decay rate (rad/s).
        detuning: Drive detuning from cavity resonance (rad/s), signed.
            Positive (blue) detuning anti-damps the mechanics, negative
            (red) detuning damps it.
        n_cav: Mean intracavity photon number (dimensionless, >= 0).
    """

    length: float
    kappa: float
    detuning: float
    n_cav: float


@dataclass(frozen=True)
class CoupledSystem:
    """Two mechanical modes, each with its own cavity, coupled at rate J.

    Valid by construction (``with_photon_number`` and ``dataclasses.replace``
    too): an invalid field raises ValidationError (see system_violations).

    Attributes:
        resonator_1: First mechanical mode (by convention the blue side).
        resonator_2: Second mechanical mode (by convention the red side).
        cavity_1: Cavity driving resonator_1.
        cavity_2: Cavity driving resonator_2.
        coupling_j: Intermode coupling rate J (rad/s, > 0).
    """

    resonator_1: MechanicalResonator
    resonator_2: MechanicalResonator
    cavity_1: OpticalCavity
    cavity_2: OpticalCavity
    coupling_j: float

    def __post_init__(self):
        validate_system(self)

    def with_photon_number(self, n_cav: float) -> "CoupledSystem":
        """Copy of the system with both cavities driven at ``n_cav`` photons."""
        return dataclasses.replace(
            self,
            cavity_1=dataclasses.replace(self.cavity_1, n_cav=n_cav),
            cavity_2=dataclasses.replace(self.cavity_2, n_cav=n_cav),
        )


def balanced_system(
    resonator: MechanicalResonator,
    length: float,
    kappa: float,
    coupling_j: float,
) -> CoupledSystem:
    """Build the symmetric blue/red configuration from a single resonator.

    Cavity 1 is blue-detuned by +omega_m (mechanical gain), cavity 2
    red-detuned by -omega_m (matched loss), both undriven (0 photons).
    ``with_photon_number`` drives both at one photon number, so the effective
    dampings are equal and opposite whenever the intrinsic ``gamma_m`` vanishes.
    """
    blue = OpticalCavity(length=length, kappa=kappa, detuning=resonator.omega_m, n_cav=0.0)
    red = OpticalCavity(length=length, kappa=kappa, detuning=-resonator.omega_m, n_cav=0.0)
    return CoupledSystem(
        resonator_1=resonator,
        resonator_2=resonator,
        cavity_1=blue,
        cavity_2=red,
        coupling_j=coupling_j,
    )


@dataclass(frozen=True)
class SupermodePair:
    """Eigenvalue pair of the coupled-mode matrix: complex fields at one
    point, arrays over a sweep's grid (``phase`` an object array of Phase).

    ``lambda_plus`` is the branch with the larger real part (larger
    imaginary part on ties), except in a sweep, where branches are
    relabeled for continuity. Eigenvalues satisfy the trace identity
    lambda_plus + lambda_minus = (omega_1 + omega_2) - i(Gamma_1 + Gamma_2)/2.

    Attributes:
        lambda_plus: Complex eigenvalue (rad/s).
        lambda_minus: Complex eigenvalue (rad/s).
        discriminant: Complex quantity whose square root is half the
            eigenvalue separation; its sign structure determines ``phase``.
        phase: Phase classification of the pair.
    """

    lambda_plus: complex | np.ndarray
    lambda_minus: complex | np.ndarray
    discriminant: complex | np.ndarray
    phase: Phase | np.ndarray


@dataclass(frozen=True)
class SensitivityContext:
    """Thermal-noise environment for sensitivity estimates.

    Attributes:
        temperature: Bath temperature (K).
        sample_time: Longest frequency-counting integration time tau (s);
            sensitivity_curve caps it per frequency by the signal period.
        drive_amplitude: rms coherent drive amplitude of the readout mode (m).
        quality_factor: Mechanical quality factor used in the noise model.
    """

    temperature: float
    sample_time: float
    drive_amplitude: float
    quality_factor: float


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _normal(x):
    """Whether x, a float or elementwise an array, is finite with |x| >= DBL_MIN."""
    magnitude = abs(x)
    return (magnitude >= sys.float_info.min) & (magnitude < math.inf)


def _zero_or_normal(x):
    """Whether x, a float or elementwise an array, is 0 or a normal double;
    a subnormal carries fewer digits than its written text, NaN or inf none."""
    return (x == 0.0) | _normal(x)


def _check(name: str, value: float, where: str | None = None, zero: bool = False):
    """The one sign check: NonPositiveParameterError unless ``value`` is
    finite and > 0, or is 0 where ``zero`` is set; else None."""
    if math.isfinite(value) and (value > 0 or zero and value == 0):
        return None
    return NonPositiveParameterError(name, value, where)


def require_positive(name: str, value: float, where: str | None = None) -> None:
    """Raise NonPositiveParameterError unless ``value`` is finite and > 0."""
    err = _check(name, value, where)
    if err is not None:
        raise err


def require_nonnegative(name: str, value: float, where: str | None = None) -> None:
    """Raise NonPositiveParameterError unless ``value`` is finite and >= 0."""
    err = _check(name, value, where, True)
    if err is not None:
        raise err


def require_strain(strain: float) -> None:
    """Raise InvalidRangeError unless |h| < 1/2, where the strained g0 (1 - 2h)
    keeps its sign, and h is 0 or normal: a subnormal h has too few bits for
    the sqrt(h) splitting."""
    if not (abs(strain) < 0.5 and _zero_or_normal(strain)):
        raise InvalidRangeError(f"strain h = {strain!r}; need h = 0 or a normal double with |h| < 1/2")


# A sweep run peaks at about 0.3 KB per point (sweep-ncav at 2^20 points:
# 313 MB of RSS as CSV, 285 MB as JSON), so the largest grid stays under 1 GB.
_MAX_POINTS = 1 << 20


def sweep_grid(name: str, lo: float, hi: float, points: int, log: bool) -> np.ndarray:
    """Grid of ``points`` values from ``lo`` to ``hi``, linear or log-spaced.

    Raises InvalidRangeError, naming the ends ``{name}_min``/``{name}_max``,
    for an end that is not finite (checked first), fewer than 2 or more
    than 2**20 points, an empty or reversed range, a negative start, or a
    log-spaced grid from zero. Nothing is allocated before the checks.
    """
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise InvalidRangeError(f"{name}_{end} = {value!r} is not finite")
    if not 2 <= points <= _MAX_POINTS:
        raise InvalidRangeError(f"points = {points}; need 2 to {_MAX_POINTS} points")
    if not lo < hi:
        raise InvalidRangeError(f"empty range [{name}_min, {name}_max] = [{lo!r}, {hi!r}]")
    if lo < 0:
        raise InvalidRangeError(f"{name}_min = {lo!r} is negative")
    if log:
        if lo == 0:
            raise InvalidRangeError(f"a log-spaced grid needs {name}_min > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def validate_resonator(resonator: MechanicalResonator, where: str | None = None) -> list[NonPositiveParameterError]:
    """Return every constraint violation of a resonator (empty list if valid)."""
    checks = [
        _check("omega_m", resonator.omega_m, where),
        _check("mass", resonator.mass, where),
        _check("quality_factor", resonator.quality_factor, where),
        _check("thickness", resonator.thickness, where),
        _check("gamma_m", resonator.gamma_m, where, True),
    ]
    return [c for c in checks if c is not None]


def validate_cavity(cavity: OpticalCavity, where: str | None = None) -> list[NonPositiveParameterError]:
    """Return every constraint violation of a cavity (empty list if valid)."""
    checks = [
        _check("length", cavity.length, where),
        _check("kappa", cavity.kappa, where),
        None if math.isfinite(cavity.detuning) else NonPositiveParameterError("detuning", cavity.detuning, where),
        _check("n_cav", cavity.n_cav, where, True),
    ]
    return [c for c in checks if c is not None]


def system_violations(system: CoupledSystem) -> list[NonPositiveParameterError]:
    """Collect every parameter violation of a coupled system.

    ``CoupledSystem`` runs it as it is built (through validate_system) and
    leaves its records unchecked, so the one error reports the complete
    list of violations rather than stopping at the first. A zero coupling J is
    valid (two decoupled modes); the operations that need the coupling
    reject it themselves, e.g. ep_photon_number with ZeroCouplingError.
    """
    violations: list[NonPositiveParameterError] = []
    violations += validate_resonator(system.resonator_1, "resonator_1")
    violations += validate_resonator(system.resonator_2, "resonator_2")
    violations += validate_cavity(system.cavity_1, "cavity_1")
    violations += validate_cavity(system.cavity_2, "cavity_2")
    err = _check("coupling_j", system.coupling_j, None, True)
    if err is not None:
        violations.append(err)
    return violations


def validate_system(system: CoupledSystem) -> CoupledSystem:
    """Return the system unchanged if every invariant holds; otherwise
    raise ValidationError carrying the full violation list."""
    violations = system_violations(system)
    if violations:
        raise ValidationError(violations)
    return system


def drive_amplitude_from_thickness(thickness: float) -> float:
    """Critical rms drive amplitude of a doubly-clamped beam, 0.53 * thickness."""
    require_positive("thickness", thickness)
    return CRITICAL_AMPLITUDE_FACTOR * thickness


# A line ends at CR LF, CR or LF, as csv.reader counts lines; a form feed or U+2028 ends none.
_LINE_END = re.compile(r"\r\n?|\n")


def _decode_utf8(data: bytes) -> str:
    """The text of a file's bytes, UTF-8 after an optional byte-order mark.
    A byte that is not UTF-8 raises ConfigParseError naming its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object: the bytes after a byte-order mark, which exc.start indexes
        line = len(_LINE_END.split(exc.object[: exc.start].decode()))
        raise ConfigParseError(line, f"byte {exc.object[exc.start]:#04x} is not UTF-8") from None
