"""Independent references for the supermode spectrum and its readout, used
by the tests.

``eigenvalues_numeric`` solves the characteristic polynomial of M, a
different route from the closed-form discriminant of
``epgw.spectral.eigenvalues_general``, so the tests can compare the two.
``readout_reference`` is the spectral readout written plainly, with
numpy's own window, DFT and shift, so the tests can pin the library's
in-place readout to it bit for bit. ``strained_directly`` evaluates a
strain's response at the rescaled drive, the route ``epgw.spectral.splitting``
avoids, with the bound within which the two agree. ``ep_photon_number_scanned``
locates the EP by always scanning the whole float polish window, so the
tests can pin the library's early return at an exactly cancelling guess to it.
"""

import cmath
import math

import numpy as np

from epgw.core import CoupledSystem, InvalidRangeError, NoEPError, SupermodePair, ZeroCouplingError
from epgw.dynamics import SpectralEstimate, Trajectory, _fft_length, _peak_bins
from epgw.spectral import (
    _PHASES,
    _arms,
    _at_ep,
    _classify,
    _magnitude,
    _polish_photon_number,
    _spectrum,
    eigenvalues_general,
    ep_tolerance,
)


def eigenvalues_numeric(system: CoupledSystem) -> SupermodePair:
    """Supermode pair via the characteristic polynomial of M.

    Independent of eigenvalues_general: solves lambda^2 + b lambda + c = 0
    with the numerically stable root recipe (larger-magnitude root from the
    quadratic formula, the other from c/q), then pairs the roots to the
    analytic branches by nearest match so the labels agree even when the
    eigenvalues nearly coincide.
    """
    arms = _arms(system)
    j = system.coupling_j
    n_1, n_2 = system.cavity_1.n_cav, system.cavity_2.n_cav
    a11 = complex(arms[0].omega_m, -0.5 * arms[0].damping(n_1))
    a22 = complex(arms[1].omega_m, -0.5 * arms[1].damping(n_2))
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
    center, closed_form_disc = _spectrum(arms, j, n_1, n_2)
    root = cmath.sqrt(closed_form_disc)
    plus, minus = center + root, center - root
    keep = abs(r1 - plus) + abs(r2 - minus)
    swap = abs(r2 - plus) + abs(r1 - minus)
    lp, lm = (r1, r2) if keep <= swap else (r2, r1)
    disc = 0.25 * (b * b - 4.0 * c)
    return SupermodePair(
        lambda_plus=lp,
        lambda_minus=lm,
        discriminant=disc,
        phase=_PHASES[_classify(disc, j)],
    )


def readout_reference(trajectory: Trajectory) -> SpectralEstimate:
    """estimate_spectrum as np.hanning, np.fft.fft and np.fft.fftshift
    compute it: a1 times the full window, zero-padded to _fft_length(n),
    transformed into a new array and shifted by a copy; the peaks are those
    of _peak_bins, each refined by three-bin parabolic interpolation of the
    log magnitude."""
    n = len(trajectory)
    m = _fft_length(n)
    padded = np.zeros(m, dtype=complex)
    padded[:n] = np.hanning(n) * trajectory.a1
    mag = np.fft.fftshift(np.abs(np.fft.fft(padded)))
    df = 1.0 / (m * trajectory.dt)
    resolution = 2.0 * math.pi * df
    frequencies, widths = [], []
    for k in _peak_bins(mag):
        delta = width = 0.0
        if mag[k - 1] > 0.0 and mag[k] > 0.0 and mag[k + 1] > 0.0:
            lm_, l0, lp_ = math.log(mag[k - 1]), math.log(mag[k]), math.log(mag[k + 1])
            curvature = lm_ - 2.0 * l0 + lp_
            if curvature < 0.0:
                delta = 0.5 * (lm_ - lp_) / curvature
                width = 2.0 * resolution / math.sqrt(-curvature)
        frequencies.append(-2.0 * math.pi * (-(m // 2) * df + (k + delta) * df))
        widths.append(width)
    return SpectralEstimate(peak_frequencies=frequencies, peak_linewidths=widths, resolution=resolution)


def strained_directly(system: CoupledSystem, n0: float, strain: float) -> tuple[float, float, float]:
    """(d_exact, linewidth_split, bound): the response of ``system``, biased
    at its EP by n0, to ``strain`` h, from eigenvalues_general at the drive
    n0 (1 - 2h)^2, as cli.cmd_simulate drives the pair.

    Strain enters the model only as g0 -> g0 (1 - 2h), so gamma_opt ->
    gamma_opt (1 - 2h)^2, exactly a rescale of the photon number; this
    route and splitting's increment compute one quantity. Near the EP the
    direct discriminant J^2 + B^2/4 is the difference of two terms of size
    J^2, so it is off by a few ulps of J^2: the drive's own rounding, about
    1.5 eps relative, moves B^2/4 by about 3 eps J^2, and the sum rounds
    within a few eps J^2 more; ep_tolerance(J) = 8 eps J^2 holds both. An
    error delta in disc moves the separation 2 sqrt(disc) by delta /
    |sqrt(disc)| = 2 delta / split, split = |lambda+ - lambda-|. Then
    lambda+- = center +- root each round within an ulp of |lambda+|, and
    8 eps |lambda+| covers the difference of the two. ``bound`` is
    2 ep_tolerance(J) / split + 8 eps |lambda+|.
    """
    pair = eigenvalues_general(system.with_photon_number(n0 * (1.0 - 2.0 * strain) ** 2))
    separation = pair.lambda_plus - pair.lambda_minus
    eps = np.finfo(float).eps
    bound = 2.0 * ep_tolerance(system.coupling_j) / abs(separation) + 8.0 * eps * abs(pair.lambda_plus)
    return abs(separation.real), abs(separation.imag), bound


def ep_photon_number_scanned(system: CoupledSystem) -> float:
    """epgw.spectral.ep_photon_number without its early return: the closed-form
    guess is always polished over the full window, whose first minimum of
    |disc| wins, and every error is raised with the library's class and text."""
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
    guess = min(nonnegative) + 0.0
    best_n, best = _polish_photon_number(lambda n: _magnitude(_spectrum(arms, j, n, n)[1]), guess)
    if not math.isfinite(best):
        raise InvalidRangeError(
            f"coupling_j = {j!r}: the discriminant overflows double precision near the EP at n = {guess:.6e}"
        )
    if not _at_ep(best, j):
        raise NoEPError(
            f"discriminant magnitude {best:.3e} above threshold {ep_tolerance(j):.3e} near n = {guess:.6e}"
        )
    return best_n
