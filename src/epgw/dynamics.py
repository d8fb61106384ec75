"""Time-domain propagation of the coupled-mode equation and spectral readout.

Both propagators take the spectrum of the mode matrix M from
``spectral._pair``. The exact one is e^{-i M t} in one closed form for
every pair, at the EP and away from it, tabled (table-driven exp; Tang,
ACM TOMS 15, 144 (1989)) in blocks whose length is a power of two, so that
the block span is exact. The RK4 cross-check steps by its one-step
matrix. A trajectory is n finite samples dt apart from t = 0, checked as
it is made; it keeps dt and the samples, and derives its times. A windowed
DFT peak estimator recovers supermode frequencies from mode 1, zero-padded
to the next length with only the factors 2, 3 and 5 (``_fft_length``), on
which the DFT runs its fast radix passes: half its Hann window is mirrored,
and its magnitude is written in shifted order. ``simulate`` reads mode 1
straight into the padded DFT, with no trajectory (``_mode_1_spectrum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoupledSystem,
    InvalidRangeError,
    RunawayGainError,
    SamplingTooCoarseError,
    TooFewSamplesError,
)
from .spectral import _arms, _pair

# Hann sidelobes peak at -31.5 dB (2.7% in magnitude); a 5% floor rejects
# them while keeping any genuine secondary line.
_SECOND_PEAK_FRACTION = 0.05

_MAX_SAMPLES = 1 << 24

_PHASE_BLOCK = 1 << 10  # samples per block of the propagator table (see propagate_exact)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Finite complex amplitudes of the two modes; sample k is at t = k * dt.

    Attributes:
        dt: Sample step (s), finite and > 0.
        a1: Complex amplitude of mode 1 per sample (read-only).
        a2: Complex amplitude of mode 2 per sample (read-only).

    Raises:
        ValueError: a bad dt, or a1 and a2 not 1-D of one length >= 2.
        RunawayGainError: a sample is not finite (see _require_finite).
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
        _require_finite(self.dt, a1, a2)
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
            sorted descending by spectral magnitude; none for a spectrum
            without an interior local maximum.
        peak_linewidths: 2 resolution / sqrt(-c) (rad/s), same order, for
            the log-magnitude curvature c per bin^2 at the peak: for a line
            narrower than a few bins, the Hann window's main lobe (about
            1.7 bins), not the mode's width.
        resolution: Bin spacing 2*pi/(m*dt) (rad/s), m = _fft_length(N).
    """

    peak_frequencies: list[float]
    peak_linewidths: list[float]
    resolution: float


def mode_matrix(system: CoupledSystem) -> np.ndarray:
    """The 2x2 matrix M with da/dt = -i M a.

    Diagonal entries are omega_j - i Gamma_j / 2 with each arm's total
    damping from its own cavity; off-diagonal entries are J. A system is
    valid as it is built.

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
    """The number of samples dt apart that span ``duration``, t = 0 included,
    for a finite dt > 0 and a finite duration."""
    if not duration >= dt:
        raise InvalidRangeError(f"duration = {float(duration)!r}; need a finite duration >= dt = {float(dt)!r}")
    steps = duration / dt + 1e-9  # compared as a float: it may be inf
    if steps >= _MAX_SAMPLES:
        raise InvalidRangeError(f"duration/dt = {duration / dt:.6e} yields more than {_MAX_SAMPLES} samples")
    return int(steps) + 1


def _fft_length(n: int) -> int:
    """The smallest m = 2^a 3^b 5^c >= n, on which the DFT runs fast radix
    passes. The cap _MAX_SAMPLES = 2^24 is itself 5-smooth, so m never
    passes it for a count within the cap."""
    # the next power of two; then, for each odd 3^b 5^c below the best
    # length so far, its least multiple 2^a 3^b 5^c >= n
    m = 1 << (n - 1).bit_length()
    power_3 = 1
    while power_3 < m:
        odd = power_3
        while odd < m:
            m = min(m, odd << (-(-n // odd) - 1).bit_length())
            odd *= 5
        power_3 *= 3
    return m


def _prepare(system: CoupledSystem, initial, duration: float, dt: float | None):
    """Both propagators' checked inputs: a0, M, M's spectrum (center, root)
    from spectral._pair, the step dt and the sample count n: the grid is n
    samples dt apart from t = 0.

    The step is bounded by a tenth of the fastest period, 0.1 * 2 pi /
    max|Re lambda|, where for lambda = center +- root max|Re lambda| =
    |Re center| + |Re root| > 0 (Re center is the mean of two omega_m > 0).
    A dt of None takes the bound itself; a larger dt raises
    SamplingTooCoarseError."""
    a0 = np.asarray(initial, dtype=complex)
    if a0.shape != (2,):
        raise ValueError("initial must be a pair of complex amplitudes")
    if not np.isfinite(a0).all():
        raise InvalidRangeError(f"initial = {initial!r} is not finite")
    m = mode_matrix(system)
    center, root, _ = _pair(_arms(system), system.coupling_j, system.cavity_1.n_cav, system.cavity_2.n_cav)
    bound = 0.1 * 2.0 * math.pi / (abs(center.real) + abs(root.real))
    if dt is None:
        dt = bound
    # input errors, ahead of the sampling guard
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidRangeError(f"dt = {float(dt)!r}; need a finite dt > 0")
    if not math.isfinite(duration):
        raise InvalidRangeError(f"duration = {float(duration)!r} is not finite")
    # 1e-6 relative slack: a dt rounded to a decimal (1e-10 at 1 GHz) must
    # not trip the guard
    if dt > bound * (1.0 + 1e-6):
        raise SamplingTooCoarseError(f"dt = {dt:.6e} s exceeds 0.1 * 2 pi / max|Re lambda| = {bound:.6e} s")
    return a0, m, (center, root), dt, _sample_count(duration, dt)


def _require_finite(dt: float, *modes: np.ndarray) -> None:
    """Check the modes' samples, dt apart: RunawayGainError names the time of
    the first that is not finite (an overflow in runaway gain, a caller's NaN)."""
    with np.errstate(all="ignore"):  # a sum is finite only if every sample is; else they are scanned
        finite = np.isfinite(sum(mode.sum() for mode in modes)) or np.all([np.isfinite(mode) for mode in modes], axis=0)
    if not np.all(finite):
        first = int(np.argmin(finite))
        raise RunawayGainError(
            f"the trajectory is not finite at t = {first * dt:.6e} s"
            f" (sample {first} of {len(modes[0])})"
        )


def _propagator(center: complex, root: complex, drift: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{-i M t} for each t of ``times``, as (len(times), 2, 2) matrices.

    With lambda = center, s = root and N = drift = M - lambda I, so that
    N^2 = s^2 I, e^{-i M t} = e^{-i lambda t} (cos(s t) I - i (sin(s t) / s) N)
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)). cos(s t) and sin(s t) / s
    are even in s, so the root with Im s >= 0 serves, and with z = 2 i s t
    (Re z <= 0) the form is written about the faster-growing supermode:

        e^{-i M t} = e^{-i (lambda + s) t} ((1 + e^z) / 2 I - i t (expm1(z) / z) N),

    with expm1(z) / z = 1 at z = 0, so that sin(s t) / s = t at s = 0 (the
    Jordan form's secular term). Nothing cancels as s -> 0, and no factor
    overflows before that supermode does: cos(s t) alone would at
    |Im s| t > 709, though both supermodes decay.
    """
    s = root if root.imag >= 0.0 else -root
    z = 2j * s * times
    expm1_z = np.expm1(z)
    sin_st_over_s = times * np.divide(expm1_z, z, out=np.ones_like(z), where=z != 0)
    phases = np.exp(-1j * (center + s) * times)[:, None, None]
    return phases * ((1.0 + 0.5 * expm1_z)[:, None, None] * np.eye(2) - 1j * sin_st_over_s[:, None, None] * drift)


def _table(system: CoupledSystem, initial, duration: float, dt: float | None):
    """dt, n and propagate_exact's table: the ceil(n / B) block starts
    e^{-i M q B dt} and the B = _PHASE_BLOCK offsets e^{-i M r dt} a0."""
    a0, m, (center, root), dt, n = _prepare(system, initial, duration, dt)
    with np.errstate(all="ignore"):  # runaway gain overflows: the samples are checked
        drift = m - center * np.eye(2)
        starts = _propagator(center, root, drift, np.arange(-(-n // _PHASE_BLOCK)) * (_PHASE_BLOCK * dt))
        offsets = _propagator(center, root, drift, np.arange(_PHASE_BLOCK) * dt) @ a0
    return dt, n, starts, offsets


def propagate_exact(system: CoupledSystem, initial, duration: float, dt: float | None = None) -> Trajectory:
    """Closed-form evolution a(t) = e^{-i M t} a(0).

    e^{-i M t} takes one closed form for every pair (_propagator), at the
    EP, next to it and away from it, with no spectral projector
    (I +- N / s) / 2 to cancel as s -> 0. It is tabled (table-driven exp;
    Tang, ACM TOMS 15, 144 (1989)): with B = _PHASE_BLOCK a power of two,
    so that the block span B dt is exact, sample k = q B + r is
    e^{-i M q B dt} (e^{-i M r dt} a0), the product of one of about N / B
    block starts and one of B offsets. One matrix product writes the (2, N)
    amplitudes, the only array of N samples made.

    Accuracy: the error relative to the state's size is within
    16 eps (1 + max|lambda| t) of a 40-digit mpmath expm, at the EP, a few
    floats from it and far from it.

    Args:
        system: The coupled system.
        initial: Pair of complex amplitudes at t = 0.
        duration: Total simulated time (s), at least one step.
        dt: Sample step (s); None for the largest step the sampling
            guard accepts, 0.1 * 2 pi / max|Re lambda|.

    Raises:
        InvalidRangeError: initial, dt or duration not finite, non-positive
            dt, duration < dt, a grid beyond the sample-count limit, or M or
            its eigenvalues overflow double precision.
        SamplingTooCoarseError: dt > 0.1 * 2 pi / max|Re lambda|.
        RunawayGainError: a sample overflows double precision (a mode in
            runaway gain), named by the time of the first one.
    """
    dt, n, starts, offsets = _table(system, initial, duration, dt)
    amplitudes = np.empty((2, len(starts) * _PHASE_BLOCK), dtype=complex)
    with np.errstate(all="ignore"):  # runaway gain overflows: checked below
        np.matmul(starts, offsets.T, out=amplitudes.reshape(2, -1, _PHASE_BLOCK).transpose(1, 0, 2))
    return Trajectory(dt=dt, a1=amplitudes[0, :n], a2=amplitudes[1, :n])


def _mode_1_spectrum(system: CoupledSystem, initial, duration: float, dt: float | None = None):
    """(estimate_spectrum(propagate_exact(...)), n, dt), bit for bit, with no
    trajectory: mode 1 goes straight into the padded DFT, mode 2 nowhere. It
    raises as the two do, but RunawayGainError names mode 1's first sample."""
    dt, n, starts, offsets = _table(system, initial, duration, dt)
    span = len(starts) * _PHASE_BLOCK  # whole blocks: the last may end past m

    def write(spectrum):
        with np.errstate(all="ignore"):  # runaway gain overflows: checked below
            np.matmul(starts[:, 0], offsets.T, out=spectrum[:span].reshape(-1, _PHASE_BLOCK))
        spectrum[n:span] = 0.0
        _require_finite(dt, spectrum[:n])

    return _readout(n, dt, write, span), n, dt


def propagate_rk(system: CoupledSystem, initial, duration: float, dt: float | None = None) -> Trajectory:
    """Fourth-order Runge-Kutta integration of da/dt = -i M a.

    Same contract as propagate_exact; global error O(dt^4). Kept as an
    independent cross-check of the closed-form propagator. The system is
    linear, so a step is the matrix P = I + A + A^2/2 + A^3/6 + A^4/24 with
    A = -i dt M, RK4's stability polynomial (Hairer, Norsett & Wanner,
    Solving ODEs I, II.1). The steps are CPython complex arithmetic, which
    overflows to inf and nan without a warning; the samples are checked
    once at the end.
    """
    a0, m, _, dt, n = _prepare(system, initial, duration, dt)
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
    return Trajectory(dt=dt, a1=a1, a2=a2)


def _peak_bins(mag: np.ndarray) -> list[int]:
    """The bins of the reported peaks of a magnitude spectrum, at most two.

    Candidates are the interior local maxima; a spectrum without one (flat,
    or monotonic) has no peak. The largest is reported, and the next
    largest when it reaches _SECOND_PEAK_FRACTION of it; of exactly equal
    magnitudes the lower bin comes first. Only the top two candidates are
    sorted: a long trajectory has hundreds of thousands of them.
    """
    candidates = np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])) + 1
    if candidates.size > 2:
        values = mag[candidates]
        candidates = candidates[values >= np.partition(values, -2)[-2]]
    candidates = candidates[np.argsort(-mag[candidates], kind="stable")]
    second = candidates.size > 1 and mag[candidates[1]] >= _SECOND_PEAK_FRACTION * mag[candidates[0]]
    return candidates[: 2 if second else 1].tolist()


def estimate_spectrum(trajectory: Trajectory) -> SpectralEstimate:
    """Peak frequencies of a1(t) from a Hann-windowed DFT.

    Amplitudes evolve as e^{-i lambda t}, so a supermode at Re(lambda) =
    Omega appears at DFT frequency -Omega / 2 pi; bins are mapped back
    with that sign flip. The samples are finite (see Trajectory). The
    peaks are those of _peak_bins (none for a spectrum without an interior
    local maximum), each refined by three-bin parabolic interpolation of
    the log magnitude (exact for a Gaussian peak; it reduces the bin-center
    bias far below the raw resolution). The linewidth is 2 dOmega / sqrt(-c)
    for log-magnitude curvature c per bin^2. For a line narrower than a
    few bins that parabola is the Hann window's main lobe, so the figure
    is about 1.7 bins whatever the mode's width: the default simulate run,
    whose PT-symmetric pair has zero width, reads 1.69 bins.

    A large prime factor of the DFT length takes a slow generic pass, so
    the windowed n samples are zero-padded to m = _fft_length(n), sampling
    the same windowed spectrum on m bins (Harris, Proc. IEEE 66, 51 (1978));
    the resolution is 2 pi / (m dt). The window's first half is mirrored;
    the DFT is transformed in place, though the FFT takes two arrays of m
    as scratch, and its magnitude is written in np.fft.fftshift order.

    Raises:
        TooFewSamplesError: fewer than 1024 samples.
    """
    n = len(trajectory)
    return _readout(n, trajectory.dt, lambda spectrum: np.copyto(spectrum[:n], trajectory.a1))


def _readout(n: int, dt: float, write, length: int = 0) -> SpectralEstimate:
    """estimate_spectrum of the n samples dt apart that write(buffer) puts at
    the head of a zeroed buffer of max(m, length) bins, m = _fft_length(n).
    The readout owns the buffer: it drops the padded DFT for its magnitude."""
    m = _fft_length(n)
    spectrum = np.zeros(max(m, length), dtype=complex)
    write(spectrum)
    if n < 1024:
        raise TooFewSamplesError(f"{n} samples; need at least 1024 for a spectral estimate")
    # the window np.hanning(n), bit for bit, is even about its middle, as np.cos is:
    # the first half, with an odd n's middle sample, is computed and the rest mirrored
    half = (n + 1) // 2
    window = 0.5 + 0.5 * np.cos(np.pi * np.arange(1 - n, 1 - n + 2 * half, 2, dtype=float) / (n - 1.0))
    spectrum[:half] *= window
    spectrum[half:n] *= window[: n - half][::-1]
    del window
    np.fft.fft(spectrum[:m], out=spectrum[:m])
    mag = np.empty(m)  # |DFT| in np.fft.fftshift order: bin 0 at m // 2
    np.abs(spectrum[: m - m // 2], out=mag[m // 2 :])
    np.abs(spectrum[m - m // 2 : m], out=mag[: m // 2])
    del spectrum  # before the peak search's masks of m
    df = 1.0 / (m * dt)
    # the lowest bin after the shift, as np.fft.fftfreq computes it
    f_first = -(m // 2) * df
    resolution = 2.0 * math.pi * df

    frequencies: list[float] = []
    widths: list[float] = []
    for k in _peak_bins(mag):
        ym, y0, yp = mag[k - 1], mag[k], mag[k + 1]
        delta = 0.0
        width = 0.0
        if ym > 0.0 and yp > 0.0:  # y0 > ym too: a peak (_peak_bins) tops its lower neighbour
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
