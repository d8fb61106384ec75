"""Supermode spectrum of the dissipatively coupled resonator pair.

The two mechanical modes evolve under da/dt = -i M a with the non-Hermitian
matrix

    M = [[omega_1 - i Gamma_1/2,  J                    ],
         [J,                      omega_2 - i Gamma_2/2]]

where Gamma_j = gamma_m + g0_j^2 n_cav phi_j is the total (intrinsic plus
optical) damping of arm j. Eigenvalues are

    lambda_pm = (omega_1 + omega_2)/2 - i (Gamma_1 + Gamma_2)/4 +- sqrt(disc)

and the discriminant carries the phase information: positive real part
means a frequency-split (PT-symmetric) pair, negative real part means a
linewidth-split (broken) pair, zero means an exceptional point.

The discriminant of M is disc = J^2 + B^2/4 (EQ7), with
B = (omega_1 - omega_2) + i (Gamma_2 - Gamma_1)/2, so the balanced EP sits
at Gamma = 2J.

One kernel, ``_spectrum``, evaluates this closed form for every caller:
single points (``eigenvalues_general``) and whole grids (the float polish
of the closed-form EP photon number, both sweeps). It gives the center and
the discriminant. The root is taken by ``_root`` where it is read (``_pair``
at a single point, ``sweep_photon_number`` on a grid); the polish and the
strain response's EP gate read |disc| alone. The kernel
takes the photon-number-independent constants of each arm (``_arms``,
derived once per system object) and a photon number that is a float or an
array, and works on real and imaginary parts written out the way CPython
evaluates the complex expressions, so a grid point is bit for bit the
value a single-point call gives. A sweep returns its arrays as they are, in the
record a single point fills with floats (SupermodePair, SplittingResult).
numpy's complex ``*`` and ``abs`` are not used: they differ from
CPython's in the last bit for some operands.
Magnitudes come from ``np.hypot``, the C library hypot that CPython's
``abs(complex)`` calls. Grids and single points share one square root,
``cmath.sqrt`` (per element; numpy's differs on the imaginary axis).
Where floats and arrays need different primitives, one helper dispatches
on the type, so every line of a kernel runs for both and a float stays a
Python float: ``_complex`` builds a complex, ``_magnitude`` takes |z|
(inf where abs() would raise), ``_root`` the complex root, ``_sqrt`` the
real one (math.sqrt or np.sqrt, both correctly rounded) and ``_all``
reduces a range test. A single point is Python floats throughout, which
warn of nothing, so ``np.errstate`` wraps array arithmetic alone: the
polish window and the two sweeps.

Each rule of the model is written once: ``_arms`` evaluates the arm
constants (g0, phi; ``_Arm.damping`` is Gamma), ``_classify`` is the phase
rule for a point or a grid, and ``_at_ep`` the one EP rule, |disc| <=
``ep_tolerance(J)`` = 8 eps J^2: the phase label, the EP gate of
``ep_photon_number`` and the strain response all ask it
(``dynamics.propagate_exact`` needs no EP rule: its closed form holds for
every pair). Overflow of valid but extreme
inputs is an InvalidRangeError, checked where it arises: ``_arms``
checks the arm constants and J^2, ``dynamics.mode_matrix`` its matrix,
``_pair`` a single point's spectrum, the sweeps and the strain response
their arrays (the latter with ``core._normal``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    C_LIGHT,
    HBAR,
    CoupledSystem,
    InvalidRangeError,
    MechanicalResonator,
    NoEPError,
    NotAtEPError,
    OpticalCavity,
    Phase,
    SupermodePair,
    ZeroCouplingError,
    _normal,
    require_nonnegative,
    require_strain,
    sweep_grid,
)

# The EP rule's threshold relative to J^2. The damping gamma(n_cav) moves on
# a grid of ~1 ulp as the photon number steps through adjacent floats; when
# that grid happens to skip the exact cancellation value the closest
# achievable |disc| is bounded by 2 J * ulp(2J) <= 4 eps J^2. The EP rule
# accepts down to twice that floor.
_EPS = sys.float_info.epsilon

# Reach of the float polish of the closed-form EP photon number, in floats
# each side of it. Located EPs have needed at most 2 (6,400 seeded designs);
# the rest is margin. A detuned pair is refused by a bound ahead of the
# window; any other system without an EP fails the EP rule at any reach.
_POLISH_STEPS = 16

# Float-step offsets of the polish window, in the order the neighbours are
# tried: the guess, then one step down and one step up, two down, two up...
_POLISH_OFFSETS = np.concatenate(
    [[0], np.stack([-np.arange(1, _POLISH_STEPS + 1), np.arange(1, _POLISH_STEPS + 1)], axis=1).ravel()]
)
_INF_BITS = int(np.float64(np.inf).view(np.int64))

# Phases by the index _classify returns; an index array picks an object array.
_PHASES = np.array([Phase.PT_SYMMETRIC, Phase.BROKEN, Phase.EXCEPTIONAL_POINT], dtype=object)

# cmath.sqrt as a ufunc, for _root's arrays
_SQRT = np.frompyfunc(cmath.sqrt, 1, 1)


@dataclass(frozen=True)
class SplittingResult:
    """Supermode response to a strain-induced coupling perturbation: floats
    at one strain (``splitting``), arrays over a grid (``sweep_strain``).

    Attributes:
        strain: Applied strain h (dimensionless).
        d_exact: Real frequency splitting from the full discriminant (rad/s).
        d_approx: Small-strain form 4 sqrt(2) J sqrt(|h|) (rad/s).
        linewidth_split: Magnitude of the imaginary splitting (rad/s).
    """

    strain: float | np.ndarray
    d_exact: float | np.ndarray
    d_approx: float | np.ndarray
    linewidth_split: float | np.ndarray

    @property
    def rel_error(self) -> float | np.ndarray:
        """|d_exact - d_approx| / d_approx, or 0.0 where d_approx is zero;
        a float or an array, like the fields."""
        d, a = self.d_exact, self.d_approx
        if isinstance(a, np.ndarray):
            return np.divide(abs(d - a), a, out=np.zeros_like(a), where=a != 0.0)
        return 0.0 if a == 0.0 else abs(d - a) / a


def zero_point_fluctuation(resonator: MechanicalResonator) -> float:
    """x_zpf = sqrt(hbar / (2 m omega_m)) in metres."""
    return math.sqrt(HBAR / (2.0 * resonator.mass * resonator.omega_m))


def vacuum_coupling(cavity: OpticalCavity, x_zpf: float) -> float:
    """Optical frequency pull per zero-point displacement, g0 (rad/s).

    For a cavity whose resonance scales as 1/L the pull rate is
    g0 = (d omega_cav / d L) x_zpf = pi c x_zpf / L^2.
    """
    return math.pi * C_LIGHT * x_zpf / (cavity.length * cavity.length)


def detuning_response(cavity: OpticalCavity, omega_m: float) -> float:
    """Two-Lorentzian detuning response phi (seconds).

    phi = -kappa / ((kappa/2)^2 + (Delta - omega_m)^2)
          + kappa / ((kappa/2)^2 + (Delta + omega_m)^2)

    Odd in the detuning: blue drive (Delta = +omega_m) gives phi < 0 and
    hence optical gain, red drive gives the sign-flipped loss.
    """
    k = cavity.kappa
    half_sq = (0.5 * k) * (0.5 * k)
    d = cavity.detuning
    return -k / (half_sq + (d - omega_m) ** 2) + k / (half_sq + (d + omega_m) ** 2)


class _Arm(NamedTuple):
    """The constants of one arm that do not depend on the photon number."""

    omega_m: float
    gamma_m: float
    g0: float
    g0_sq: float
    phi: float

    def optical_damping(self, n):
        """gamma_opt = g0^2 n phi (a float or an array n); negative = gain."""
        return self.g0_sq * n * self.phi

    def damping(self, n):
        """Total damping Gamma = gamma_m + gamma_opt at photon number n."""
        return self.gamma_m + self.optical_damping(n)


def _arms(system: CoupledSystem) -> tuple[_Arm, _Arm]:
    """Per-arm constants of a system, each from its own cavity and resonator.

    The only caller of the leaf formulas. An overflow (the records hold
    Python floats) or a zero divisor in them, or a g0^2, phi or J^2 that is
    not finite, raises InvalidRangeError naming the arm (or coupling_j) and
    the quantity, on every call. The pair is derived once per system object
    and kept on it, outside its fields, so eq, hash and repr do not see it."""
    cached = getattr(system, "_arm_pair", None)
    if cached is not None:
        return cached
    if not math.isfinite(system.coupling_j * system.coupling_j):
        raise InvalidRangeError(f"coupling_j = {system.coupling_j!r}: J^2 overflows double precision")
    arms = []
    for k, resonator, cavity in ((1, system.resonator_1, system.cavity_1), (2, system.resonator_2, system.cavity_2)):
        quantity = "x_zpf"
        try:
            x_zpf = zero_point_fluctuation(resonator)
            quantity = "g0"
            g0 = vacuum_coupling(cavity, x_zpf)
            quantity = "phi"
            phi = detuning_response(cavity, resonator.omega_m)
        except ArithmeticError:
            raise InvalidRangeError(f"arm {k}: {quantity} is out of double-precision range") from None
        arm = _Arm(resonator.omega_m, resonator.gamma_m, g0, g0 * g0, phi)
        for quantity, value in (("g0^2", arm.g0_sq), ("phi", arm.phi)):
            if not math.isfinite(value):
                raise InvalidRangeError(f"arm {k}: {quantity} = {value!r} is out of double-precision range")
        arms.append(arm)
    object.__setattr__(system, "_arm_pair", tuple(arms))
    return system._arm_pair


def _complex(re, im):
    """complex(re, im); a complex array when ``im`` is an array."""
    if not isinstance(im, np.ndarray):
        return complex(re, im)
    z = np.empty(im.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _magnitude(z):
    """abs(z); for an array, the same hypot elementwise. A finite z whose
    modulus overflows gives inf, as np.hypot does, where abs() raises."""
    if isinstance(z, np.ndarray):
        return np.hypot(z.real, z.imag)
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _root(z):
    """cmath.sqrt(z); for an array, cmath.sqrt of each element."""
    if not isinstance(z, np.ndarray):
        return cmath.sqrt(z)
    return np.asarray(_SQRT(z), dtype=complex)


def _sqrt(x):
    """math.sqrt(x); np.sqrt for an array. Both are correctly rounded."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)


def _all(x):
    """x.all() for an array; a bool as it is."""
    if isinstance(x, np.ndarray):
        return x.all()
    return x


def _spectrum(arms: tuple[_Arm, _Arm], coupling_j: float, n_1, n_2):
    """Center and discriminant at photon numbers n_1, n_2.

    The one closed-form evaluator. ``n_1`` and ``n_2`` (the photon numbers
    of the two cavities) are floats, giving Python complex results, or
    arrays, giving complex arrays; either way each value is bit for bit
    what CPython's complex arithmetic gives for

        center = complex((w1 + w2)/2, -(G1 + G2)/4)
        b = complex(w1 - w2, (G2 - G1)/2)
        disc = J*J + 0.25*(b*b)

    The root is left to the callers that read it: ``_root(disc)``, the
    principal root, has Re >= 0 (Im >= 0 on the branch cut), so center +
    root is the canonical lambda_plus: larger Re, larger Im on ties.
    """
    arm_1, arm_2 = arms
    gamma_1 = arm_1.damping(n_1)
    gamma_2 = arm_2.damping(n_2)
    center = _complex(0.5 * (arm_1.omega_m + arm_2.omega_m), -0.25 * (gamma_1 + gamma_2))
    b_re = arm_1.omega_m - arm_2.omega_m
    b_im = 0.5 * (gamma_2 - gamma_1)
    sq_re = b_re * b_re - b_im * b_im
    sq_im = b_re * b_im + b_im * b_re
    # CPython's 0.25 * z is the full product with complex(0.25, 0.0);
    # its zero terms matter where a part is not finite (0.0 * inf)
    sq_re, sq_im = 0.25 * sq_re - 0.0 * sq_im, 0.25 * sq_im + 0.0 * sq_re
    # J*J enters as complex(J*J, 0.0): an imaginary -0.0 becomes +0.0
    disc = _complex(coupling_j * coupling_j + sq_re, 0.0 + sq_im)
    return center, disc


def ep_tolerance(coupling_j: float) -> float:
    """The one EP rule's threshold: a pair is at its exceptional point when
    |disc| <= 8 eps J^2, twice the discriminant's representability floor."""
    return 8.0 * _EPS * coupling_j * coupling_j


def _at_ep(disc_magnitude, coupling_j: float):
    """The one EP rule: |disc| <= ep_tolerance(J), for a magnitude or an
    array of them. A NaN magnitude fails it."""
    return disc_magnitude <= ep_tolerance(coupling_j)


def _classify(disc, coupling_j: float):
    """Index into _PHASES of a discriminant, a complex or a complex array:
    the EP (2) when _at_ep, else PT-symmetric (0) when Re(disc) >= 0, else
    broken (1), NaN included. Written on bools, so a complex gives an int
    and an array an int array."""
    at_ep = _at_ep(_magnitude(disc), coupling_j)
    broken = (at_ep | (disc.real >= 0.0)) ^ True
    return 2 * at_ep + broken


def eigenvalues_general(system: CoupledSystem) -> SupermodePair:
    """Supermode pair of a coupled system from the analytic discriminant.

    The single-point evaluator; a system is valid as it is built.

    Args:
        system: The system; each arm's damping is computed from its own
            cavity and resonator.

    Returns:
        SupermodePair with canonically labeled branches.

    Raises:
        InvalidRangeError: the arm constants or the eigenvalues overflow
            double precision (see _arms), e.g. at an extreme photon number.
    """
    center, root, disc = _pair(_arms(system), system.coupling_j, system.cavity_1.n_cav, system.cavity_2.n_cav)
    phase = _PHASES[_classify(disc, system.coupling_j)]
    return SupermodePair(lambda_plus=center + root, lambda_minus=center - root, discriminant=disc, phase=phase)


def _pair(arms: tuple[_Arm, _Arm], coupling_j: float, n_1: float, n_2: float):
    """(center, root, disc) at photon numbers n_1, n_2, floats; the eigenvalues
    are center +- root. InvalidRangeError unless all are finite: a finite center
    + root has a finite disc, whose root (at most 1.6e154) leaves center - root finite."""
    center, disc = _spectrum(arms, coupling_j, n_1, n_2)
    root = _root(disc)
    if not cmath.isfinite(center + root):
        raise InvalidRangeError(f"n_cav = {n_1!r}, {n_2!r}: the eigenvalues overflow double precision")
    return center, root, disc


def _polish_photon_number(magnitude, n_guess: float) -> tuple[float, float]:
    """The float within +-_POLISH_STEPS steps of n_guess that minimizes |disc|.

    ep_photon_number tries the guess alone first and calls this only when
    its |disc| is not 0, the one value no neighbour can beat. An analytic
    guess is only good to a few ulps because it cannot
    anticipate the rounding of the damping chain, so the discriminant at
    the guess may sit far above the few ulps of J^2 that the EP rule
    allows, where a neighbour cancels it bit-exactly. The neighbouring
    floats of n_guess >= 0 (clipped at 0.0 and +inf) are evaluated in one
    call, in the order [n, down 1, up 1, down 2, up 2, ...], and the first
    minimum in that order wins; a NaN magnitude never wins, unless it is
    the guess's.

    Returns:
        (n, |disc(n)|) at the chosen float.
    """
    bits = np.minimum(np.maximum(np.float64(n_guess).view(np.int64) + _POLISH_OFFSETS, 0), _INF_BITS)
    window = bits.view(np.float64)
    with np.errstate(all="ignore"):
        values = magnitude(window)
    best = 0 if np.isnan(values[0]) else int(np.argmin(np.where(np.isnan(values), np.inf, values)))
    return float(window[best]), float(values[best])


def ep_photon_number(system: CoupledSystem) -> float:
    """Photon number that drives the system to its (lowest) exceptional point.

    The threshold is closed-form for any system. With both cavities at n
    photons each arm's damping is Gamma_k = gamma_m,k + s_k n, with slope
    s_k = g0_k^2 phi_k, and the discriminant J^2 + B^2/4 vanishes only
    when omega_1 = omega_2 and Gamma_2 - Gamma_1 = +-4 J, that is at

        n = (+-4 J - (gamma_m,2 - gamma_m,1)) / (s_2 - s_1).

    The smaller nonnegative root is tried first: if the discriminant there
    is exactly 0 it is returned, the float the polish window would pick,
    since the guess leads the window's order. Otherwise it is
    float-polished: neighbouring floats of n are tried so that feeding the
    result back through eigenvalues_general cancels the discriminant
    bit-exactly whenever the float grid allows it (the reference device
    needs the float above its guess), and to within ep_tolerance(J) =
    8 eps J^2 otherwise. A balanced system has gamma_m,2 = gamma_m,1 and
    s_2 = -s_1, so n0 = 2 J / (g0^2 |phi|). No search bounds apply. The
    located n0 is kept on the system object (see _keep_bias), so splitting
    and sweep_strain at it do not check it again.

    Raises:
        InvalidRangeError: an arm constant or J^2 overflows (see _arms),
            or the discriminant at the polished root does (inf or NaN).
        ZeroCouplingError: J = 0, or the photon number does not move the
            discriminant (equal slopes, s_2 = s_1).
        NoEPError: both roots are negative (or NaN), or there is no EP
            near them. The bound decides first: a detuned pair has |disc|
            >= |omega_1 - omega_2| J at every n, and is refused when
            |omega_1 - omega_2| > 64 eps J; then the EP rule (a finite
            |disc| above ep_tolerance(J) at the polished root).
    """
    j = system.coupling_j
    if j == 0:
        raise ZeroCouplingError("coupling_j is zero; the spectrum has no tunable degeneracy")
    arms = _arms(system)
    arm_1, arm_2 = arms
    d_slope = arm_2.g0_sq * arm_2.phi - arm_1.g0_sq * arm_1.phi
    if d_slope == 0.0:
        raise ZeroCouplingError("g0^2 * phi is equal in both arms; photon number cannot tune the discriminant")
    d_gamma = arm_2.gamma_m - arm_1.gamma_m
    roots = ((4.0 * j - d_gamma) / d_slope, (-4.0 * j - d_gamma) / d_slope)
    nonnegative = [n for n in roots if n >= 0.0]
    if not nonnegative:
        raise NoEPError(f"no EP at n >= 0: the closed form gives n = {roots[0]:.6e} and {roots[1]:.6e}")
    # + 0.0 turns a root of -0.0 into 0.0, the bottom of the polish window
    guess = min(nonnegative) + 0.0
    disc = _spectrum(arms, j, guess, guess)[1]
    # A detuned pair has |disc| >= |b_re| J at every n, in exact arithmetic,
    # above 8 eps J^2 once |b_re| > 64 eps J. In floats, while fl(b_re b_im)
    # is normal, the EP rule needs |b_im| <= 16 eps J^2/|b_re| (1 + O(eps)),
    # below J/4; then Re disc >= J^2 (1 - 1/64 - O(eps)) and no float n
    # passes. Where 8 eps J^2 is not normal, a float disc can underflow to
    # pass it, to 0 included, so the bound decides alone. A guess whose
    # |disc| overflows is left to the window, which raises InvalidRangeError.
    b_re = arm_1.omega_m - arm_2.omega_m
    if abs(b_re) > 64.0 * _EPS * j and _magnitude(disc) < math.inf:
        raise NoEPError(
            f"omega_1 - omega_2 = {b_re:.6e} rad/s: |disc| >= |omega_1 - omega_2| J = {abs(b_re) * j:.3e}"
            f" above threshold {ep_tolerance(j):.3e} at every n"
        )
    # the guess leads the polish window and nothing beats |disc| = 0
    if disc == 0:
        return _keep_bias(system, arms, guess)[0]
    best_n, best = _polish_photon_number(lambda n: _magnitude(_spectrum(arms, j, n, n)[1]), guess)
    if not math.isfinite(best):
        raise InvalidRangeError(
            f"coupling_j = {j!r}: the discriminant overflows double precision near the EP at n = {guess:.6e}"
        )
    if not _at_ep(best, j):
        raise NoEPError(
            f"discriminant magnitude {best:.3e} above threshold {ep_tolerance(j):.3e} near n = {guess:.6e}"
        )
    return _keep_bias(system, arms, best_n)[0]


def _keep_bias(system: CoupledSystem, arms: tuple[_Arm, _Arm], n0: float) -> tuple:
    """The strain response's terms at a bias n0 that passed the EP rule,
    (n0, b0_re, b0_im, opt_1, opt_2), kept on the system object in place of
    any earlier bias, outside its fields as _arms' pair is. It is read by
    n0's value: at n0 = 0.0 and -0.0 the terms differ at most in the sign
    of a zero, which no output of the response keeps."""
    arm_1, arm_2 = arms
    b0_im = 0.5 * (arm_2.damping(n0) - arm_1.damping(n0))
    bias = (n0, arm_1.omega_m - arm_2.omega_m, b0_im, arm_1.optical_damping(n0), arm_2.optical_damping(n0))
    object.__setattr__(system, "_ep_bias", bias)
    return bias


def splitting(system: CoupledSystem, n0: float, strain: float) -> SplittingResult:
    """Supermode splitting of an EP-biased system under strain.

    Strain rescales each arm's vacuum coupling g0 -> g0 (1 - 2h), hence
    gamma_opt -> gamma_opt (1 - 2h)^2. Rather than re-evaluating the
    eigenvalues at the shifted coupling (which rounds the perturbation
    away for |h| below ~1e-16 and shreds it below ~1e-8), the discriminant
    is updated incrementally:

        disc(h) = dB (2 B0 + dB) / 4,
        dB = -4 h (1 - h) i (gamma_opt_2 - gamma_opt_1) / 2.

    This is the same polynomial identity evaluated without catastrophic
    cancellation, so it stays accurate down to arbitrarily small strain.
    The unstrained discriminant is gated by the EP rule (see ep_tolerance)
    and then treated as exactly zero, so the response vanishes identically
    at h = 0 instead of sitting on sub-ulp residue from the bias point.
    The gate runs once per system object and bias: an n0 that
    ep_photon_number located, or that the last check passed, is kept.

    Args:
        system: The system, biased at its EP by ``n0``.
        n0: Exceptional-point photon number (from ep_photon_number).
        strain: Strain amplitude h, |h| < 1/2; negative values are allowed
            and drive the pair into the broken phase instead.

    Returns:
        SplittingResult. ``d_approx`` uses |h| so that it remains the
        magnitude of the predicted splitting for either sign.

    Raises:
        NonPositiveParameterError: n0 not finite or negative.
        InvalidRangeError: |h| >= 1/2, or h not finite; or an arm
            constant (see _arms) or the response overflows; or, at
            h != 0, d_approx or a discriminant that the strain moves (the
            arms' optical dampings differ) is not a normal double.
        NotAtEPError: ``n0`` does not put the unstrained system at its EP.
    """
    n0, strain = require_nonnegative("n0", n0), require_strain(strain)
    return SplittingResult(strain, *_strain_response(system, n0, strain))


def _strain_response(system: CoupledSystem, n0: float, h):
    """(d_exact, d_approx, linewidth_split) at strain h, a float or an
    array, for a system biased at n0, a float (see splitting). An array h
    runs under the caller's np.errstate; a float needs none. The system's
    bias record, when it holds n0, stands for the EP gate and the terms at
    n0; otherwise n0 is gated and its record replaces the kept one."""
    j = system.coupling_j
    bias = getattr(system, "_ep_bias", None)
    if bias is None or bias[0] != n0:
        arms = _arms(system)
        disc0 = _magnitude(_spectrum(arms, j, n0, n0)[1])
        if not _at_ep(disc0, j):
            raise NotAtEPError(
                f"|disc| = {disc0:.3e} exceeds threshold {ep_tolerance(j):.3e} at n_cav = {n0!r}; locate the EP first"
            )
        bias = _keep_bias(system, arms, n0)
    _, b0_re, b0_im, opt_1, opt_2 = bias
    scale = -4.0 * h * (1.0 - h)  # (1 - 2h)^2 - 1, exactly
    # disc(h) = 0.25 db (2 b0 + db) with db = i db_im. CPython's complex
    # product adds zero terms here that can only flip the sign of a
    # zero part, which neither output below keeps.
    db_im = 0.5 * (scale * opt_2 - scale * opt_1)
    t_im = 2.0 * b0_im + db_im
    disc = _complex(0.25 * -(db_im * t_im), 0.25 * (db_im * (2.0 * b0_re)))
    alpha = _root(disc)
    response = (2.0 * alpha.real, 4.0 * math.sqrt(2.0) * j * _sqrt(abs(h)), 2.0 * abs(alpha.imag))
    # One test of the whole response: it is finite, and at h != 0 the
    # discriminant and d_approx are normal doubles; below that range
    # they have lost the sqrt(h) law's digits, down to a splitting of
    # 0. The sum is finite exactly when every part is, since a finite
    # part is below 1e155 (J^2 is finite; a double's root is < 1.4e154).
    # With equal optical damping (no light at n0 = 0, say) the strain
    # has no lever: disc is exactly 0 at every h, a zero response and
    # not an underflow, so only d_approx is tested. _normal reads alike
    # on a float and an array; an inf part it refuses makes the sum inf.
    disc_normal = _normal(disc.real) | _normal(disc.imag) | (opt_1 == opt_2)
    finite = abs(sum(response)) < math.inf
    in_range = finite & ((disc_normal & _normal(response[1])) | (h == 0.0))
    if not _all(in_range):
        if not _all(finite):
            raise InvalidRangeError(f"the strain response at n0 = {n0!r} overflows double precision")
        k = np.argmin(np.ravel(in_range))  # the first point out of range
        h_k, disc_k, approx_k = (np.ravel(x)[k].item() for x in (h, disc, response[1]))
        raise InvalidRangeError(
            f"coupling_j = {j!r}: the strain response at h = {h_k!r} underflows double precision"
            f" (disc = {disc_k!r}, d_approx = {approx_k!r}; each must be a normal double)"
        )
    return response


def _continuity_swaps(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Points of a canonically labeled branch pair to swap for continuity.

    Walking the grid, point k keeps or swaps its labels, whichever moves
    the branches less from the relabeled point k-1 (keep on a tie). In
    terms of the canonical pairs at k-1 and k, a strictly shorter swap
    flips the labeling of k-1, a strictly shorter keep carries it, and an
    exact tie (or NaN) resets it to canonical. So the labeling at k is the
    parity of the swaps since the last reset: a cumulative XOR restarted
    at every tie.
    """
    keep = _magnitude(plus[1:] - plus[:-1]) + _magnitude(minus[1:] - minus[:-1])
    swap = _magnitude(plus[1:] - minus[:-1]) + _magnitude(minus[1:] - plus[:-1])
    flips = np.concatenate([[0], np.cumsum(swap < keep)]) & 1
    resets = np.concatenate([[True], ~((swap < keep) | (keep < swap))])
    last_reset = np.maximum.accumulate(np.where(resets, np.arange(len(plus)), 0))
    return (flips ^ flips[last_reset]).astype(bool)


def sweep_photon_number(
    system: CoupledSystem,
    n_min: float,
    n_max: float,
    points: int,
    log: bool = False,
) -> tuple[np.ndarray, SupermodePair]:
    """Eigenvalue branches along a photon-number ramp.

    Branches are relabeled for continuity: at each grid point the pairing
    (kept or swapped) that minimizes total displacement from the previous
    point wins, so the plus branch never jumps across the gap at the EP.

    Returns:
        (grid, pair): the photon-number grid, and one SupermodePair of
        arrays over it (``pair.phase[k] is Phase.BROKEN`` works).

    Raises:
        InvalidRangeError: bad grid (see core.sweep_grid), or eigenvalues
            that overflow double precision on it.
    """
    grid = sweep_grid("n", n_min, n_max, points, log)
    with np.errstate(all="ignore"):
        center, disc = _spectrum(_arms(system), system.coupling_j, grid, grid)
        root = _root(disc)
        plus, minus = center + root, center - root
        if not np.isfinite(plus).all():  # then minus is finite too (see _pair)
            raise InvalidRangeError(f"n_max = {float(n_max)!r}: the eigenvalues overflow double precision")
        phase = _PHASES[_classify(disc, system.coupling_j)]
    swapped = _continuity_swaps(plus, minus)
    plus, minus = np.where(swapped, minus, plus), np.where(swapped, plus, minus)
    return grid, SupermodePair(lambda_plus=plus, lambda_minus=minus, discriminant=disc, phase=phase)


def sweep_strain(
    system: CoupledSystem,
    n0: float,
    h_min: float,
    h_max: float,
    points: int,
    log: bool = False,
) -> SplittingResult:
    """Splitting response over a strain range at fixed EP bias: one
    SplittingResult of arrays over the grid, each element (rel_error too)
    bit for bit what ``splitting`` gives at that strain. The grid's
    arithmetic runs under np.errstate, the one the strain response needs.

    Raises:
        NonPositiveParameterError: n0 not finite or negative.
        InvalidRangeError: bad grid (see core.sweep_grid), or a grid value
            that core.require_strain refuses.
        NotAtEPError: ``n0`` is not the exceptional-point photon number.
    """
    n0 = require_nonnegative("n0", n0)
    grid = sweep_grid("h", h_min, h_max, points, log)
    require_strain(h_max)
    require_strain(float(grid[grid > 0.0].min()))
    with np.errstate(all="ignore"):
        return SplittingResult(grid, *_strain_response(system, n0, grid))
