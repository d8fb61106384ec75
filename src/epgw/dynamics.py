"""Time-domain propagation of the coupled-mode equation and spectral readout.

Provides an exact propagator (eigendecomposition, with a Jordan-form path
for the defective matrix at an exceptional point), an independent RK4
integrator for cross-checking, and a windowed-DFT peak estimator that
recovers supermode frequencies from simulated trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoupledSystem,
    InvalidRangeError,
    SamplingTooCoarseError,
    TooFewSamplesError,
    validate_system,
)
from .spectral import _arms

# Eigenvector condition number beyond which the matrix is treated as
# defective and propagated with the generalized (Jordan) form.
DEFECTIVE_COND_THRESHOLD = 1e8

# Hann sidelobes peak at -31.5 dB (2.7% in magnitude); a 5% floor rejects
# them while keeping any genuine secondary line.
_SECOND_PEAK_FRACTION = 0.05

_MAX_SAMPLES = 1 << 24


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled complex amplitudes of the two modes.

    Attributes:
        times: Sample instants (s), strictly increasing, uniform step.
        a1: Complex amplitude of mode 1 per sample.
        a2: Complex amplitude of mode 2 per sample.
    """

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        a1 = np.asarray(self.a1, dtype=complex)
        a2 = np.asarray(self.a2, dtype=complex)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        if len(a1) != len(times) or len(a2) != len(times):
            raise ValueError("times, a1 and a2 must have equal length")
        steps = np.diff(times)
        if not (steps > 0).all():
            raise ValueError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("times must be uniformly spaced")
        for arr in (times, a1, a2):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.times)


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


def _sample_grid(duration: float, dt: float) -> np.ndarray:
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidRangeError(f"dt = {dt!r}; need a finite dt > 0")
    if not (math.isfinite(duration) and duration >= dt):
        raise InvalidRangeError(f"duration = {duration!r}; need a finite duration >= dt = {dt!r}")
    n = int(math.floor(duration / dt + 1e-9)) + 1
    if n > _MAX_SAMPLES:
        raise InvalidRangeError(f"duration/dt yields {n} samples; limit is {_MAX_SAMPLES}")
    return np.arange(n) * dt


def _check_sampling(eigenvalues: np.ndarray, dt: float) -> None:
    fastest = float(np.max(np.abs(eigenvalues.real)))
    if fastest > 0.0:
        limit = 0.1 * 2.0 * math.pi / fastest
        # 1e-6 relative slack: near a degeneracy the eigensolver's Re(lambda)
        # wobbles by ~sqrt(eps), and a dt derived analytically from the same
        # 0.1 * 2 pi / max|Re lambda| bound must not trip the guard.
        if dt > limit * (1.0 + 1e-6):
            raise SamplingTooCoarseError(
                f"dt = {dt:.6e} s exceeds 0.1 * 2 pi / max|Re lambda| = {limit:.6e} s"
            )


def _initial_vector(initial) -> np.ndarray:
    a0 = np.asarray(initial, dtype=complex)
    if a0.shape != (2,):
        raise ValueError("initial must be a pair of complex amplitudes")
    return a0


def _finite_trajectory(times: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> Trajectory:
    """The trajectory of the samples, checked: a sample that is not finite
    (a mode in runaway gain overflows) raises InvalidRangeError naming the
    time of the first one."""
    finite = np.isfinite(a1) & np.isfinite(a2)
    if not finite.all():
        first = int(np.argmin(finite))
        raise InvalidRangeError(
            f"the trajectory overflows double precision at t = {times[first]:.6e} s"
            f" (sample {first} of {len(times)})"
        )
    return Trajectory(times=times, a1=a1, a2=a2)


def propagate_exact(system: CoupledSystem, initial, duration: float, dt: float) -> Trajectory:
    """Closed-form evolution a(t) = V diag(e^{-i lambda t}) V^-1 a(0).

    When the eigenvector matrix is ill-conditioned beyond
    DEFECTIVE_COND_THRESHOLD (the defective-matrix signature at an
    exceptional point) the generalized form

        a(t) = e^{-i lambda t} (a0 - i t (M - lambda I) a0)

    is used instead; (M - lambda I) is then nilpotent and the secular
    linear-in-t term replaces the vanished second exponential.

    Args:
        system: The coupled system.
        initial: Pair of complex amplitudes at t = 0.
        duration: Total simulated time (s), at least one step.
        dt: Sample step (s).

    Raises:
        ValidationError: invalid system.
        InvalidRangeError: dt or duration not finite, non-positive dt,
            duration < dt, or a grid beyond the sample-count limit; or a
            sample overflows double precision (a mode in runaway gain),
            named by the time of the first one.
        SamplingTooCoarseError: dt > 0.1 * 2 pi / max|Re lambda|.
    """
    validate_system(system)
    a0 = _initial_vector(initial)
    m = mode_matrix(system)
    eigenvalues, vectors = np.linalg.eig(m)
    _check_sampling(eigenvalues, dt)
    times = _sample_grid(duration, dt)

    cond = np.linalg.cond(vectors)
    with np.errstate(all="ignore"):  # runaway gain overflows: checked below
        if not np.isfinite(cond) or cond > DEFECTIVE_COND_THRESHOLD:
            lam = 0.5 * (m[0, 0] + m[1, 1])
            nilpotent = m - lam * np.eye(2)
            drift = nilpotent @ a0
            base = np.exp(-1j * lam * times)
            amplitudes = base[None, :] * (a0[:, None] - 1j * drift[:, None] * times[None, :])
        else:
            coeffs = np.linalg.solve(vectors, a0)
            phases = np.exp(-1j * np.outer(eigenvalues, times))
            amplitudes = vectors @ (coeffs[:, None] * phases)
    return _finite_trajectory(times, amplitudes[0], amplitudes[1])


def propagate_rk(system: CoupledSystem, initial, duration: float, dt: float) -> Trajectory:
    """Fourth-order Runge-Kutta integration of da/dt = -i M a.

    Same contract as propagate_exact; global error O(dt^4). Kept as an
    independent cross-check of the closed-form propagator. The steps are
    CPython complex arithmetic, which overflows to inf and nan without a
    warning; the samples are checked once at the end.
    """
    validate_system(system)
    a0 = _initial_vector(initial)
    m = mode_matrix(system)
    _check_sampling(np.linalg.eigvals(m), dt)
    times = _sample_grid(duration, dt)

    m11, m12 = complex(m[0, 0]), complex(m[0, 1])
    m21, m22 = complex(m[1, 0]), complex(m[1, 1])
    n = len(times)
    a1 = np.empty(n, dtype=complex)
    a2 = np.empty(n, dtype=complex)
    x1, x2 = complex(a0[0]), complex(a0[1])
    a1[0], a2[0] = x1, x2
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, n):
        k1_1 = -1j * (m11 * x1 + m12 * x2)
        k1_2 = -1j * (m21 * x1 + m22 * x2)
        y1 = x1 + half * k1_1
        y2 = x2 + half * k1_2
        k2_1 = -1j * (m11 * y1 + m12 * y2)
        k2_2 = -1j * (m21 * y1 + m22 * y2)
        y1 = x1 + half * k2_1
        y2 = x2 + half * k2_2
        k3_1 = -1j * (m11 * y1 + m12 * y2)
        k3_2 = -1j * (m21 * y1 + m22 * y2)
        y1 = x1 + dt * k3_1
        y2 = x2 + dt * k3_2
        k4_1 = -1j * (m11 * y1 + m12 * y2)
        k4_2 = -1j * (m21 * y1 + m22 * y2)
        x1 = x1 + sixth * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
        x2 = x2 + sixth * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2)
        a1[k] = x1
        a2[k] = x2
    return _finite_trajectory(times, a1, a2)


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
