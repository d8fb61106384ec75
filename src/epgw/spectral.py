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

Two discriminant conventions are supported. EQ7 is exact for M above,
disc = J^2 + B^2/4 with B = (omega_1 - omega_2) + i (Gamma_2 - Gamma_1)/2,
so the balanced EP sits at Gamma = 2J. EQ8 is a widely used simplified
form, disc = J^2 + B^2, which places the balanced EP at Gamma = J and
therefore at half the EQ7 threshold photon number. EQ7 is the default;
EQ8 is provided for comparison with results quoted in that convention.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    C_LIGHT,
    HBAR,
    CoupledSystem,
    MechanicalResonator,
    NoEPError,
    NotAtEPError,
    OpticalCavity,
    Phase,
    SupermodePair,
    ZeroCouplingError,
    require_nonnegative,
    require_strain,
    sweep_grid,
    validate_system,
)

# Relative eigenvalue tolerance defining "at the exceptional point".
EP_REL_TOL = 1e-9

# Representability floor of the discriminant arithmetic, relative to J^2.
# The damping gamma(n_cav) moves on a grid of ~1 ulp as the photon number
# steps through adjacent floats; when that grid happens to skip the exact
# cancellation value the closest achievable |disc| is bounded by
# 2 J * ulp(2J) <= 4 eps J^2. EP location and the splitting gate accept
# down to twice that, since ep_tolerance (1e-18 relative) lies below one
# ulp of J^2 and is only reachable when the cancellation lands bit-exactly.
_EPS = sys.float_info.epsilon
_DISC_FLOOR_FACTOR = 8.0 * _EPS

# Search space for the threshold photon number when no closed form applies.
_SCAN_BOUNDS = (1.0, 1e16)
_SCAN_POINTS = 512
_POLISH_STEPS = 512


class EpConvention(Enum):
    """Discriminant convention selector (see module docstring)."""

    EQ7 = "eq7"
    EQ8 = "eq8"


@dataclass(frozen=True)
class DampingBreakdown:
    """Damping budget of one arm.

    Attributes:
        phi: Detuning response function (s); negative for blue drive.
        gamma_opt: Optical damping g0^2 n_cav phi (rad/s); negative = gain.
        gamma_total: gamma_m + gamma_opt (rad/s).
    """

    phi: float
    gamma_opt: float
    gamma_total: float


@dataclass(frozen=True)
class SplittingResult:
    """Supermode response to a strain-induced coupling perturbation.

    Attributes:
        strain: Applied strain h (dimensionless).
        dg: Vacuum coupling shift -2 g0 h (rad/s).
        d_exact: Real frequency splitting from the full discriminant (rad/s).
        d_approx: Small-strain form 4 sqrt(2) J sqrt(|h|) (rad/s).
        linewidth_split: Magnitude of the imaginary splitting (rad/s).
    """

    strain: float
    dg: float
    d_exact: float
    d_approx: float
    linewidth_split: float

    @property
    def rel_error(self) -> float:
        """|d_exact - d_approx| / d_approx, or 0.0 when d_approx is zero."""
        if self.d_approx == 0.0:
            return 0.0
        return abs(self.d_exact - self.d_approx) / self.d_approx


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


def optomech_damping(cavity: OpticalCavity, resonator: MechanicalResonator, g0: float) -> DampingBreakdown:
    """Optical damping of one arm at the cavity's photon number.

    gamma_opt = g0^2 n_cav phi; gamma_total adds the intrinsic gamma_m.
    """
    phi = detuning_response(cavity, resonator.omega_m)
    gamma_opt = g0 * g0 * cavity.n_cav * phi
    return DampingBreakdown(phi=phi, gamma_opt=gamma_opt, gamma_total=resonator.gamma_m + gamma_opt)


def _arm_breakdown(resonator: MechanicalResonator, cavity: OpticalCavity) -> DampingBreakdown:
    g0 = vacuum_coupling(cavity, zero_point_fluctuation(resonator))
    return optomech_damping(cavity, resonator, g0)


def _damping_slope(resonator: MechanicalResonator, cavity: OpticalCavity) -> float:
    """d gamma_opt / d n_cav for one arm (rad/s per photon)."""
    g0 = vacuum_coupling(cavity, zero_point_fluctuation(resonator))
    return g0 * g0 * detuning_response(cavity, resonator.omega_m)


def ep_tolerance(coupling_j: float) -> float:
    """Discriminant magnitude below which a pair counts as degenerate."""
    return (EP_REL_TOL * coupling_j) ** 2


def _ep_acceptance(coupling_j: float) -> float:
    """ep_tolerance, opened up to the double-precision representability floor."""
    return max(ep_tolerance(coupling_j), _DISC_FLOOR_FACTOR * coupling_j * coupling_j)


def _classify(disc: complex, tol: float) -> Phase:
    if abs(disc) <= tol:
        return Phase.EXCEPTIONAL_POINT
    if disc.real >= 0.0:
        return Phase.PT_SYMMETRIC
    return Phase.BROKEN


def _pair_from_parts(
    omega_1: float,
    omega_2: float,
    gamma_1: float,
    gamma_2: float,
    coupling_j: float,
    convention: EpConvention,
) -> SupermodePair:
    center = complex(0.5 * (omega_1 + omega_2), -0.25 * (gamma_1 + gamma_2))
    b = complex(omega_1 - omega_2, 0.5 * (gamma_2 - gamma_1))
    if convention is EpConvention.EQ7:
        disc = coupling_j * coupling_j + 0.25 * (b * b)
    else:
        disc = coupling_j * coupling_j + b * b
    # principal sqrt has Re >= 0 (Im >= 0 on the branch cut), so center+alpha
    # is already the canonical lambda_plus: larger Re, larger Im on ties.
    alpha = cmath.sqrt(disc)
    return SupermodePair(
        lambda_plus=center + alpha,
        lambda_minus=center - alpha,
        discriminant=disc,
        phase=_classify(disc, ep_tolerance(coupling_j)),
    )


def eigenvalues_general(system: CoupledSystem, convention: EpConvention = EpConvention.EQ7) -> SupermodePair:
    """Supermode pair of a coupled system from the analytic discriminant.

    The per-point evaluator of the sweeps and the EP search: it does not
    validate ``system`` (see validate_system).

    Args:
        system: The system; each arm's damping is computed from its own
            cavity and resonator.
        convention: Discriminant convention (EQ7 default, see module doc).

    Returns:
        SupermodePair with canonically labeled branches.
    """
    g1 = _arm_breakdown(system.resonator_1, system.cavity_1).gamma_total
    g2 = _arm_breakdown(system.resonator_2, system.cavity_2).gamma_total
    return _pair_from_parts(
        system.resonator_1.omega_m,
        system.resonator_2.omega_m,
        g1,
        g2,
        system.coupling_j,
        convention,
    )


def eigenvalues_numeric(system: CoupledSystem) -> SupermodePair:
    """Supermode pair via the characteristic polynomial of M.

    Independent of eigenvalues_general: solves lambda^2 + b lambda + c = 0
    with the numerically stable root recipe (larger-magnitude root from the
    quadratic formula, the other from c/q), then pairs the roots to the
    analytic branches by nearest match so the labels agree even when the
    eigenvalues nearly coincide. Always equivalent to the EQ7 convention,
    which is exact for M.
    """
    g1 = _arm_breakdown(system.resonator_1, system.cavity_1).gamma_total
    g2 = _arm_breakdown(system.resonator_2, system.cavity_2).gamma_total
    a11 = complex(system.resonator_1.omega_m, -0.5 * g1)
    a22 = complex(system.resonator_2.omega_m, -0.5 * g2)
    j = system.coupling_j
    b = -(a11 + a22)
    c = a11 * a22 - j * j
    s = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (b + s)
    if q == 0:
        r1 = r2 = 0.0j
    else:
        r1 = q
        r2 = c / q
    reference = _pair_from_parts(
        system.resonator_1.omega_m, system.resonator_2.omega_m, g1, g2, j, EpConvention.EQ7
    )
    keep = abs(r1 - reference.lambda_plus) + abs(r2 - reference.lambda_minus)
    swap = abs(r2 - reference.lambda_plus) + abs(r1 - reference.lambda_minus)
    lp, lm = (r1, r2) if keep <= swap else (r2, r1)
    disc = 0.25 * (b * b - 4.0 * c)
    return SupermodePair(
        lambda_plus=lp,
        lambda_minus=lm,
        discriminant=disc,
        phase=_classify(disc, ep_tolerance(j)),
    )


def _disc_magnitude(system: CoupledSystem, n_cav: float, convention: EpConvention) -> float:
    return abs(eigenvalues_general(system.with_photon_number(n_cav), convention).discriminant)


def _polish_photon_number(
    system: CoupledSystem, n_guess: float, convention: EpConvention
) -> tuple[float, float]:
    """Walk n_cav one float at a time to minimize the discriminant magnitude.

    The degeneracy tolerance is a tiny fraction of an ulp of J^2, so the
    discriminant must cancel essentially bit-exactly; an analytic guess is
    only good to a few ulps because it cannot anticipate the rounding of
    the damping chain. Scanning neighbouring floats of n_cav and keeping
    the best value closes that gap.
    """
    best_n = n_guess
    best = _disc_magnitude(system, n_guess, convention)
    if best == 0.0:
        return best_n, best
    down = n_guess
    up = n_guess
    for _ in range(_POLISH_STEPS):
        down = math.nextafter(down, 0.0)
        up = math.nextafter(up, math.inf)
        for n in (down, up):
            val = _disc_magnitude(system, n, convention)
            if val < best:
                best = val
                best_n = n
                if best == 0.0:
                    return best_n, best
    return best_n, best


def _golden_refine(f, lo: float, hi: float, max_iter: int = 200) -> float:
    """Golden-section minimum of f on [lo, hi], refined to a few ulps.

    Standard bounded minimizers stop at a relative x-resolution of
    sqrt(eps) because a quadratic minimum is flat below that. The
    discriminant magnitude is V-shaped (linear) at its root, so ordering
    comparisons stay informative all the way down to one ulp of n; this
    loop has no tolerance floor and hands the polish loop a candidate
    within its +-512-float reach.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(max_iter):
        if b - a <= 8.0 * math.ulp(max(abs(a), abs(b))):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc < fd else d


def ep_photon_number(system: CoupledSystem, convention: EpConvention = EpConvention.EQ7) -> float:
    """Photon number that drives the system to its exceptional point.

    For a balanced system the threshold is closed-form: the arm dampings
    are equal and opposite, the discriminant is J^2 - (gamma/2)^2 (EQ7) or
    J^2 - gamma^2 (EQ8) with gamma = g0^2 n |phi|, so

        n0 = 2 J / (g0^2 |phi|)   (EQ7),    n0 = J / (g0^2 |phi|)   (EQ8).

    Unbalanced systems are scanned over n in [1, 1e16] (512 log-spaced
    seeds, bounded local refinement around the best seed). Either way the
    candidate is float-polished: neighbouring floats of n are scanned so
    that feeding the result back through eigenvalues_general cancels the
    discriminant bit-exactly whenever the float grid allows it (it does
    for the reference device), and to the documented representability
    floor of ~8 eps J^2 otherwise.

    Raises:
        ValidationError: invalid system.
        ZeroCouplingError: J = 0, or the photon number does not move the
            spectrum (g0^2 phi = 0 in both arms).
        NoEPError: the scan bottoms out above the acceptance threshold;
            no EP exists on the photon-number axis.
    """
    validate_system(system)
    j = system.coupling_j
    if j == 0:
        raise ZeroCouplingError("coupling_j is zero; the spectrum has no tunable degeneracy")
    accept = _ep_acceptance(j)

    if system.is_balanced:
        slope = abs(_damping_slope(system.resonator_1, system.cavity_1))
        if slope == 0.0:
            raise ZeroCouplingError("g0^2 * phi vanishes; photon number cannot tune the spectrum")
        factor = 2.0 if convention is EpConvention.EQ7 else 1.0
        n_guess = factor * j / slope
        best_n, best = _polish_photon_number(system, n_guess, convention)
        if best > accept:
            raise NoEPError(
                f"discriminant magnitude {best:.3e} above threshold {accept:.3e} "
                f"at the balanced closed-form photon number"
            )
        return best_n

    slope_1 = _damping_slope(system.resonator_1, system.cavity_1)
    slope_2 = _damping_slope(system.resonator_2, system.cavity_2)
    if slope_1 == 0.0 and slope_2 == 0.0:
        raise ZeroCouplingError("g0^2 * phi vanishes in both arms; photon number cannot tune the spectrum")

    grid = np.geomspace(_SCAN_BOUNDS[0], _SCAN_BOUNDS[1], _SCAN_POINTS)
    values = np.array([_disc_magnitude(system, float(n), convention) for n in grid])
    seed = int(np.argmin(values))
    lo = grid[max(seed - 1, 0)]
    hi = grid[min(seed + 1, len(grid) - 1)]
    refined = _golden_refine(
        lambda n: _disc_magnitude(system, n, convention), float(lo), float(hi)
    )
    best_n, best = _polish_photon_number(system, refined, convention)
    if best > accept:
        raise NoEPError(
            f"discriminant magnitude {best:.3e} above threshold {accept:.3e} after scanning n in "
            f"[{_SCAN_BOUNDS[0]:g}, {_SCAN_BOUNDS[1]:g}]"
        )
    return best_n


def coupling_perturbation(g0: float, strain: float) -> float:
    """Shift of the vacuum coupling under strain h: dg = -2 g0 h."""
    return -2.0 * g0 * strain


def splitting(
    system: CoupledSystem,
    n0: float,
    strain: float,
    convention: EpConvention = EpConvention.EQ7,
) -> SplittingResult:
    """Supermode splitting of an EP-biased system under strain.

    Strain rescales each arm's vacuum coupling g0 -> g0 (1 - 2h), hence
    gamma_opt -> gamma_opt (1 - 2h)^2. Rather than re-evaluating the
    eigenvalues at the shifted coupling (which rounds the perturbation
    away for |h| below ~1e-16 and shreds it below ~1e-8), the discriminant
    is updated incrementally:

        disc(h) = q dB (2 B0 + dB),
        dB = -4 h (1 - h) i (gamma_opt_2 - gamma_opt_1) / 2,

    with q the convention factor (1/4 for EQ7, 1 for EQ8). This is the
    same polynomial identity evaluated without catastrophic cancellation,
    so it stays accurate down to arbitrarily small strain. The unstrained
    discriminant is gated against the EP acceptance threshold and then
    treated as exactly zero, so the response vanishes identically at
    h = 0 instead of sitting on sub-ulp residue from the bias point.

    Args:
        system: The system, biased at its EP by ``n0``.
        n0: Exceptional-point photon number (from ep_photon_number).
        strain: Strain amplitude h, |h| < 1/2; negative values are allowed
            and drive the pair into the broken phase instead.
        convention: Discriminant convention.

    Returns:
        SplittingResult. ``d_approx`` uses |h| so that it remains the
        magnitude of the predicted splitting for either sign.

    Raises:
        ValidationError, NonPositiveParameterError: invalid system or n0.
        InvalidRangeError: |h| >= 1/2, or h not finite.
        NotAtEPError: ``n0`` does not put the unstrained system at its EP.
    """
    validate_system(system)
    require_nonnegative("n0", n0)
    require_strain(strain)
    return _splittings(system, n0, [strain], convention)[0]


def _splittings(
    system: CoupledSystem, n0: float, strains, convention: EpConvention
) -> list[SplittingResult]:
    """splitting() at each strain, with the bias point evaluated once."""
    biased = system.with_photon_number(n0)
    pair0 = eigenvalues_general(biased, convention)
    if abs(pair0.discriminant) > _ep_acceptance(system.coupling_j):
        raise NotAtEPError(
            f"|disc| = {abs(pair0.discriminant):.3e} exceeds threshold "
            f"{_ep_acceptance(system.coupling_j):.3e} at n_cav = {n0!r}; locate the EP first"
        )
    arm_1 = _arm_breakdown(biased.resonator_1, biased.cavity_1)
    arm_2 = _arm_breakdown(biased.resonator_2, biased.cavity_2)
    b0 = complex(
        biased.resonator_1.omega_m - biased.resonator_2.omega_m,
        0.5 * (arm_2.gamma_total - arm_1.gamma_total),
    )
    q = 0.25 if convention is EpConvention.EQ7 else 1.0
    g0_1 = vacuum_coupling(biased.cavity_1, zero_point_fluctuation(biased.resonator_1))
    results = []
    for h in strains:
        h = float(h)
        scale = -4.0 * h * (1.0 - h)  # (1 - 2h)^2 - 1, exactly
        db = complex(0.0, 0.5 * (scale * arm_2.gamma_opt - scale * arm_1.gamma_opt))
        alpha = cmath.sqrt(q * (db * (2.0 * b0 + db)))
        results.append(
            SplittingResult(
                strain=h,
                dg=coupling_perturbation(g0_1, h),
                d_exact=2.0 * alpha.real,
                d_approx=4.0 * math.sqrt(2.0) * system.coupling_j * math.sqrt(abs(h)),
                linewidth_split=2.0 * abs(alpha.imag),
            )
        )
    return results


def sweep_photon_number(
    system: CoupledSystem,
    n_min: float,
    n_max: float,
    points: int,
    log: bool = False,
    convention: EpConvention = EpConvention.EQ7,
) -> list[tuple[float, SupermodePair]]:
    """Eigenvalue branches along a photon-number ramp.

    Branches are relabeled for continuity: at each grid point the pairing
    (kept or swapped) that minimizes total displacement from the previous
    point wins, so the plus branch never jumps across the gap at the EP.

    Raises:
        ValidationError: invalid system.
        InvalidRangeError: bad grid (see core.sweep_grid).
    """
    validate_system(system)
    grid = sweep_grid("n", n_min, n_max, points, log)
    rows: list[tuple[float, SupermodePair]] = []
    prev: SupermodePair | None = None
    for n in grid:
        pair = eigenvalues_general(system.with_photon_number(float(n)), convention)
        if prev is not None:
            keep = abs(pair.lambda_plus - prev.lambda_plus) + abs(pair.lambda_minus - prev.lambda_minus)
            swap = abs(pair.lambda_plus - prev.lambda_minus) + abs(pair.lambda_minus - prev.lambda_plus)
            if swap < keep:
                pair = dataclasses.replace(
                    pair, lambda_plus=pair.lambda_minus, lambda_minus=pair.lambda_plus
                )
        rows.append((float(n), pair))
        prev = pair
    return rows


def sweep_strain(
    system: CoupledSystem,
    n0: float,
    h_min: float,
    h_max: float,
    points: int,
    log: bool = False,
    convention: EpConvention = EpConvention.EQ7,
) -> list[SplittingResult]:
    """Splitting response over a strain range at fixed EP bias.

    Raises:
        ValidationError, NonPositiveParameterError: invalid system or n0.
        InvalidRangeError: bad grid (see core.sweep_grid), or h_max >= 1/2.
        NotAtEPError: ``n0`` is not the exceptional-point photon number.
    """
    validate_system(system)
    require_nonnegative("n0", n0)
    grid = sweep_grid("h", h_min, h_max, points, log)
    require_strain(h_max)
    return _splittings(system, n0, grid, convention)
