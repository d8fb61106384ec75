"""Time-domain propagation of the coupled-mode equation and spectral readout.

Both propagators take the spectrum of the mode matrix M from
``spectral._spectrum``. The exact one is e^{-i M t} in closed form: the 2x2
exponential where the one EP rule ``spectral._at_ep`` holds, the spectral
projectors elsewhere. The RK4 cross-check steps by its one-step matrix. A
trajectory is n samples dt apart from t = 0; it keeps dt and the samples,
and derives its times. A windowed-DFT peak estimator recovers supermode
frequencies from trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoupledSystem,
    InvalidRangeError,
    RunawayGainError,
    SamplingTooCoarseError,
    TooFewSamplesError,
    validate_system,
)
from .spectral import EpConvention, _arms, _at_ep, _spectrum

# Hann sidelobes peak at -31.5 dB (2.7% in magnitude); a 5% floor rejects
# them while keeping any genuine secondary line.
_SECOND_PEAK_FRACTION = 0.05

_MAX_SAMPLES = 1 << 24


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complex amplitudes of the two modes; sample k is at t = k * dt.

    Attributes:
        dt: Sample step (s), finite and > 0.
        a1: Complex amplitude of mode 1 per sample (read-only).
        a2: Complex amplitude of mode 2 per sample (read-only).
    """

    dt: float
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt = {self.dt!r}; need a finite dt > 0")
        a1 = np.asarray(self.a1, dtype=complex).view()
        a2 = np.asarray(self.a2, dtype=complex).view()
        if a1.ndim != 1 or a1.shape != a2.shape or len(a1) < 2:
            raise ValueError("a1 and a2 must be 1-D, of equal length, with at least two samples")
        a1.flags.writeable = a2.flags.writeable = False  # views: the caller's arrays stay writable
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def times(self) -> np.ndarray:
        """Sample instants (s), np.arange(len(self)) * dt, read-only."""
        times = np.arange(len(self)) * self.dt
        times.flags.writeable = False
        return times

    def __len__(self) -> int:
        return len(self.a1)


@dataclass(frozen=True)
class SpectralEstimate:
    """Dominant spectral peaks of a trajectory.

    Attributes:
        peak_frequencies: Angular peak frequencies (rad/s), at most two,
            sorted descending by spectral magnitude.
        peak_linewidths: Lorentzian-matched full widths (rad/s), same order.
        resolution: Bin spacing 2*pi/(N*dt) (rad/s).
    """

    peak_frequencies: list[float] = field(default_factory=list)
    peak_linewidths: list[float] = field(default_factory=list)
    resolution: float = 0.0


def mode_matrix(system: CoupledSystem) -> np.ndarray:
    """The 2x2 matrix M with da/dt = -i M a.

    Diagonal entries are omega_j - i Gamma_j / 2 with each arm's total
    damping from its own cavity; off-diagonal entries are J. The system is
    not validated (see validate_system).

    Raises:
        InvalidRangeError: an entry, or an arm constant behind it (see
            spectral._arms), overflows double precision.
    """
    arm_1, arm_2 = _arms(system)
    n_1, n_2 = system.cavity_1.n_cav, system.cavity_2.n_cav
    j = system.coupling_j
    m = np.array(
        [
            [complex(system.resonator_1.omega_m, -0.5 * arm_1.damping(n_1)), j],
            [j, complex(system.resonator_2.omega_m, -0.5 * arm_2.damping(n_2))],
        ]
    )
    if not np.isfinite(m).all():
        raise InvalidRangeError(f"n_cav = {n_1!r}, {n_2!r}: the mode matrix overflows double precision")
    return m


def _sample_count(duration: float, dt: float) -> int:
    """The number of samples dt apart that span ``duration``, t = 0 included."""
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidRangeError(f"dt = {dt!r}; need a finite dt > 0")
    if not (math.isfinite(duration) and duration >= dt):
        raise InvalidRangeError(f"duration = {duration!r}; need a finite duration >= dt = {dt!r}")
    steps = duration / dt + 1e-9  # compared as a float: it may be inf
    if steps >= _MAX_SAMPLES:
        raise InvalidRangeError(f"duration/dt = {duration / dt:.6e} yields more than {_MAX_SAMPLES} samples")
    return int(steps) + 1


def _check_sampling(center: complex, root: complex, dt: float) -> None:
    """Raise SamplingTooCoarseError when dt > 0.1 * 2 pi / max|Re lambda|,
    where for lambda = center +- root max|Re lambda| = |Re center| + |Re root|."""
    fastest = abs(center.real) + abs(root.real)
    if fastest > 0.0:
        limit = 0.1 * 2.0 * math.pi / fastest
        # 1e-6 relative slack: a caller that computes the same bound with
        # other rounding, or rounds it to a decimal (dt = 1e-10 at 1 GHz),
        # must not trip the guard.
        if dt > limit * (1.0 + 1e-6):
            raise SamplingTooCoarseError(
                f"dt = {dt:.6e} s exceeds 0.1 * 2 pi / max|Re lambda| = {limit:.6e} s"
            )


def _prepare(system: CoupledSystem, initial, duration: float, dt: float):
    """Both propagators' checked inputs: a0, M, M's spectrum (center, disc,
    root) from spectral._spectrum, and the sample count n: the grid is n
    samples dt apart from t = 0."""
    validate_system(system)
    a0 = np.asarray(initial, dtype=complex)
    if a0.shape != (2,):
        raise ValueError("initial must be a pair of complex amplitudes")
    m = mode_matrix(system)
    n_1, n_2 = system.cavity_1.n_cav, system.cavity_2.n_cav
    center, disc, root = _spectrum(_arms(system), system.coupling_j, n_1, n_2, EpConvention.EQ7)
    if not np.isfinite(disc):
        raise InvalidRangeError(f"n_cav = {n_1!r}, {n_2!r}: the eigenvalues overflow double precision")
    _check_sampling(center, root, dt)
    return a0, m, (center, disc, root), _sample_count(duration, dt)


def _finite_trajectory(dt: float, a1: np.ndarray, a2: np.ndarray) -> Trajectory:
    """The trajectory of the samples dt apart, checked: a sample that is not
    finite (a mode in runaway gain overflows) raises RunawayGainError
    naming the time k * dt of the first one."""
    finite = np.isfinite(a1) & np.isfinite(a2)
    if not finite.all():
        first = int(np.argmin(finite))
        raise RunawayGainError(
            f"the trajectory overflows double precision at t = {first * dt:.6e} s"
            f" (sample {first} of {len(a1)})"
        )
    return Trajectory(dt=dt, a1=a1, a2=a2)


def propagate_exact(system: CoupledSystem, initial, duration: float, dt: float) -> Trajectory:
    """Closed-form evolution a(t) = e^{-i M t} a(0).

    With lambda the center of the pair, s = sqrt(disc) and N = M - lambda I,
    all from spectral._spectrum, N^2 = disc I. Where the one EP rule holds
    (spectral._at_ep) the exact 2x2 exponential is used,

        a(t) = e^{-i lambda t} (cos(s t) a0 - i (sin(s t) / s) N a0),

    with sin(s t) / s = t at s = 0 (the Jordan form's secular term).
    Elsewhere a0 splits with the spectral projectors (I +- N / s) / 2 onto
    the supermodes (Sylvester's formula; Moler & Van Loan, SIAM Rev. 45, 3
    (2003)), and each part evolves as e^{-i (lambda +- s) t}.

    Args:
        system: The coupled system.
        initial: Pair of complex amplitudes at t = 0.
        duration: Total simulated time (s), at least one step.
        dt: Sample step (s).

    Raises:
        ValidationError: invalid system.
        InvalidRangeError: dt or duration not finite, non-positive dt,
            duration < dt, a grid beyond the sample-count limit, or M or
            its eigenvalues overflow double precision.
        SamplingTooCoarseError: dt > 0.1 * 2 pi / max|Re lambda|.
        RunawayGainError: a sample overflows double precision (a mode in
            runaway gain), named by the time of the first one.
    """
    a0, m, (center, disc, root), n = _prepare(system, initial, duration, dt)
    times = np.arange(n) * dt
    with np.errstate(all="ignore"):  # runaway gain overflows: checked below
        drift = (m - center * np.eye(2)) @ a0
        if _at_ep(abs(disc), system.coupling_j):
            cos_st = np.cos(root * times)
            sin_st_over_s = times if root == 0 else np.sin(root * times) / root
            amplitudes = np.exp(-1j * center * times) * (cos_st * a0[:, None] - 1j * sin_st_over_s * drift[:, None])
        else:
            modes = 0.5 * (a0[:, None] + np.outer(drift / root, [1, -1]))
            amplitudes = modes @ np.exp(-1j * np.outer([center + root, center - root], times))
    return _finite_trajectory(dt, amplitudes[0], amplitudes[1])


def propagate_rk(system: CoupledSystem, initial, duration: float, dt: float) -> Trajectory:
    """Fourth-order Runge-Kutta integration of da/dt = -i M a.

    Same contract as propagate_exact; global error O(dt^4). Kept as an
    independent cross-check of the closed-form propagator. The system is
    linear, so a step is the matrix P = I + A + A^2/2 + A^3/6 + A^4/24 with
    A = -i dt M, RK4's stability polynomial (Hairer, Norsett & Wanner,
    Solving ODEs I, II.1). The steps are CPython complex arithmetic, which
    overflows to inf and nan without a warning; the samples are checked
    once at the end.
    """
    a0, m, _, n = _prepare(system, initial, duration, dt)
    eye = np.eye(2)
    with np.errstate(all="ignore"):  # runaway gain overflows: checked below
        a = -1j * dt * m
        (p11, p12), (p21, p22) = (eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)).tolist()
    a1 = np.empty(n, dtype=complex)
    a2 = np.empty(n, dtype=complex)
    x1, x2 = complex(a0[0]), complex(a0[1])
    a1[0], a2[0] = x1, x2
    for k in range(1, n):
        x1, x2 = p11 * x1 + p12 * x2, p21 * x1 + p22 * x2
        a1[k], a2[k] = x1, x2
    return _finite_trajectory(dt, a1, a2)


def estimate_spectrum(trajectory: Trajectory) -> SpectralEstimate:
    """Peak frequencies of a1(t) from a Hann-windowed DFT.

    Amplitudes evolve as e^{-i lambda t}, so a supermode at Re(lambda) =
    Omega appears at DFT frequency -Omega / 2 pi; bins are mapped back
    with that sign flip. Up to two local maxima are reported, each
    refined by three-bin parabolic interpolation of the log magnitude
    (which is exact for a Gaussian peak and reduces the bin-center bias
    far below the raw resolution). The linewidth comes from matching the
    parabola curvature to a Lorentzian: full width 2 dOmega / sqrt(-c)
    for log-magnitude curvature c per bin^2.

    Raises:
        TooFewSamplesError: fewer than 1024 samples.
    """
    n = len(trajectory)
    if n < 1024:
        raise TooFewSamplesError(f"{n} samples; need at least 1024 for a spectral estimate")
    mag = np.fft.fftshift(np.abs(np.fft.fft(trajectory.a1 * np.hanning(n))))
    df = 1.0 / (n * trajectory.dt)
    # the lowest bin after the shift, as np.fft.fftfreq computes it
    f_first = np.float64(-(n // 2)) * df
    resolution = 2.0 * math.pi * df

    interior = np.arange(1, n - 1)
    is_max = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidates = interior[is_max]
    if candidates.size == 0:
        candidates = np.array([int(np.argmax(mag[1:-1])) + 1])
    candidates = candidates[np.argsort(mag[candidates])[::-1]]

    second = candidates.size > 1 and mag[candidates[1]] >= _SECOND_PEAK_FRACTION * mag[candidates[0]]
    peaks = candidates[: 2 if second else 1].tolist()

    frequencies: list[float] = []
    widths: list[float] = []
    for k in peaks:
        ym, y0, yp = mag[k - 1], mag[k], mag[k + 1]
        delta = 0.0
        width = 0.0
        if ym > 0.0 and y0 > 0.0 and yp > 0.0:
            lm_, l0, lp_ = math.log(ym), math.log(y0), math.log(yp)
            curvature = lm_ - 2.0 * l0 + lp_
            if curvature < 0.0:
                delta = 0.5 * (lm_ - lp_) / curvature
                width = 2.0 * resolution / math.sqrt(-curvature)
        f_peak = f_first + (k + delta) * df
        frequencies.append(-2.0 * math.pi * f_peak)
        widths.append(width)
    return SpectralEstimate(
        peak_frequencies=frequencies, peak_linewidths=widths, resolution=resolution
    )
