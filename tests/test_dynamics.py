import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from epgw import (
    CoupledSystem,
    InvalidRangeError,
    MechanicalResonator,
    OpticalCavity,
    Phase,
    RunawayGainError,
    SamplingTooCoarseError,
    TooFewSamplesError,
    Trajectory,
    balanced_system,
    eigenvalues_general,
    ep_photon_number,
    estimate_spectrum,
    mode_matrix,
    propagate_exact,
    propagate_rk,
)
from epgw.dynamics import _MAX_SAMPLES, _PHASE_BLOCK, _fft_length, _mode_1_spectrum, _peak_bins, _sample_count

TWO_PI = 2.0 * math.pi


def _lossless_pair(omega_m=TWO_PI * 1e6, coupling_j=TWO_PI * 1e4, gamma_m=0.0):
    res = MechanicalResonator(
        omega_m=omega_m, mass=1e-14, quality_factor=1e4, thickness=1e-7, gamma_m=gamma_m
    )
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    return CoupledSystem(resonator_1=res, resonator_2=res, cavity_1=cav, cavity_2=cav, coupling_j=coupling_j)


def _sampling_limit(system):
    eigenvalues = np.linalg.eigvals(mode_matrix(system))
    return 0.1 * TWO_PI / float(np.max(np.abs(eigenvalues.real)))


def _traced_peak(call, *args):
    """(result, the peak of memory that numpy and Python allocate during the call, in bytes)."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _largest_prime_factor(n):
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            n, largest = n // factor, factor
        factor += 1
    return max(largest, n)


def _expm_reference(system, a0, times):
    m = mode_matrix(system)
    return np.array([scipy.linalg.expm(-1j * m * t) @ a0 for t in times])


def _kappa_mismatched(device, kappa_2_factor):
    return dataclasses.replace(
        device, cavity_2=dataclasses.replace(device.cavity_2, kappa=kappa_2_factor * device.cavity_2.kappa)
    )


def _floats_from(x, count):
    """The float ``count`` floats above x > 0, or below it for count < 0."""
    return float((np.array(x).view(np.int64) + count).view(np.float64))


def _assert_within_seam_bound(system, traj, picks):
    """Each sample k in picks of a trajectory from (1, 0) is within
    16 eps (1 + max|lambda| k dt) of e^{-i M t} (1, 0), evaluated by mpmath
    at 40 digits for the double M and t = k dt exactly. The block starts
    and the offsets each round the phase argument |lambda| t, hence the
    bound; the error is relative to the state's size, since a2 starts
    near 0."""
    mpmath = pytest.importorskip("mpmath")
    m = mode_matrix(system)
    speed = float(np.abs(np.linalg.eigvals(m)).max())
    with mpmath.workdps(40):
        minus_i_m = -1j * mpmath.matrix(m.tolist())
        for k in picks:
            t = mpmath.mpf(k) * mpmath.mpf(traj.dt)
            ref = np.array((mpmath.expm(minus_i_m * t) * mpmath.matrix([1, 0])).tolist(), dtype=complex)[:, 0]
            got = np.array([traj.a1[k], traj.a2[k]])
            err = np.abs(got - ref).max() / np.abs(ref).max()
            assert err <= 16 * np.finfo(float).eps * (1.0 + speed * k * traj.dt), k


# ---------------------------------------------------------------------------
# mode matrix and trajectory container
# ---------------------------------------------------------------------------


def test_mode_matrix_structure(device, device_n0):
    m = mode_matrix(device.with_photon_number(device_n0))
    assert m.shape == (2, 2)
    assert m[0, 1] == device.coupling_j
    assert m[1, 0] == device.coupling_j
    omega_m = device.resonator_1.omega_m
    assert m[0, 0].real == omega_m
    assert m[1, 1].real == omega_m
    # blue arm has gain (positive imaginary part), red arm the mirror loss
    assert m[0, 0].imag > 0.0
    assert m[1, 1].imag == -m[0, 0].imag


def test_mode_matrix_agrees_with_analytic_eigenvalues(device, device_n0):
    biased = device.with_photon_number(0.5 * device_n0)
    eigenvalues = np.linalg.eigvals(mode_matrix(biased))
    pair = eigenvalues_general(biased)
    got = sorted(eigenvalues, key=lambda z: z.real)
    want = sorted((pair.lambda_minus, pair.lambda_plus), key=lambda z: z.real)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)


def test_trajectory_validation():
    # a trajectory is a grid, dt and the sample count, of finite samples:
    # only those can be wrong; the samples are checked last
    z = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, a1=z[:1], a2=z[:1])
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, a1=z[:-1], a2=z)
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, a1=z.reshape(2, 4), a2=z.reshape(2, 4))
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="need a finite dt > 0"):
            Trajectory(dt=dt, a1=z, a2=z)


def test_a_bad_grid_is_named_before_a_sample_that_is_not_finite():
    z = np.zeros(8, dtype=complex)
    bad = z.copy()
    bad[5] = math.nan
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="need a finite dt > 0"):
            Trajectory(dt=dt, a1=bad, a2=bad)
    for a1, a2 in ((bad[:-1], bad), (bad[5:6], bad[5:6])):
        with pytest.raises(ValueError, match="1-D, of equal length, with at least two samples"):
            Trajectory(dt=0.1, a1=a1, a2=a2)


@pytest.mark.parametrize("sample", [math.nan, math.inf, complex(0.0, math.inf)], ids=["nan", "inf", "inf_j"])
def test_spectrum_of_a_given_trajectory_refuses_a_sample_that_is_not_finite(sample):
    # a NaN once read as a spectrum without peaks, and an inf warned at the
    # window and then did the same: the trajectory now refuses both
    a = np.exp(-0.3j * np.arange(4096))
    bad = a.copy()
    bad[5] = sample
    with pytest.raises(RunawayGainError, match=r"at t = 5\.000000e\+00 s \(sample 5 of 4096\)$"):
        estimate_spectrum(Trajectory(dt=1.0, a1=bad, a2=a))


def test_trajectory_refuses_a_sample_that_is_not_finite_in_mode_2_alone():
    # estimate_spectrum reads mode 1 only, but a trajectory holds both
    a = np.exp(-0.3j * np.arange(4096))
    bad = a.copy()
    bad[5] = math.nan
    with pytest.raises(RunawayGainError, match=r"at t = 5\.000000e\+00 s \(sample 5 of 4096\)$"):
        Trajectory(dt=1.0, a1=a, a2=bad)


_NOT_FINITE = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(0.0, math.inf)]
_FINITE = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308 + 1e308j, -(1e308 + 1e308j)]
)


@settings(max_examples=200)
@given(
    n=st.integers(2, 64),
    dt=st.floats(1e-12, 1e3),
    data=st.data(),
)
def test_trajectory_names_the_first_sample_that_is_not_finite(n, dt, data):
    # finite samples construct, ones whose sum overflows included; else the
    # error names the smallest index of a sample that is not finite in
    # either mode, at its time k * dt as _require_finite formats it
    a1 = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)), dtype=complex)
    a2 = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)), dtype=complex)
    bad = data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n - 1), st.sampled_from(_NOT_FINITE))))
    for mode, k, sample in bad:
        (a1, a2)[mode][k] = sample
    if not bad:
        traj = Trajectory(dt=dt, a1=a1, a2=a2)
        assert np.array_equal(traj.a1, a1) and np.array_equal(traj.a2, a2)
        return
    first = min(k for _, k, _ in bad)
    message = f"the trajectory is not finite at t = {first * dt:.6e} s (sample {first} of {n})"
    with pytest.raises(RunawayGainError) as info:
        Trajectory(dt=dt, a1=a1, a2=a2)
    assert str(info.value) == message


def test_trajectory_is_frozen():
    z = np.zeros(8, dtype=complex)
    traj = Trajectory(dt=1.0 / 7.0, a1=z + 1.0, a2=z)
    assert len(traj) == 8
    assert traj.dt == 1.0 / 7.0
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["dt", "a1", "a2"]
    with pytest.raises(ValueError):
        traj.a1[0] = 0.0
    with pytest.raises(ValueError):
        traj.times[0] = -1.0


def test_trajectory_leaves_the_callers_arrays_writable():
    # the trajectory freezes views of the samples it is given, not the
    # caller's arrays; no copy is made
    a = np.zeros(4, dtype=complex)
    traj = Trajectory(0.1, a, a)
    assert a.flags.writeable
    assert not traj.a1.flags.writeable and not traj.a2.flags.writeable
    assert np.shares_memory(traj.a1, a) and np.shares_memory(traj.a2, a)


# ---------------------------------------------------------------------------
# exact propagator
# ---------------------------------------------------------------------------


def test_decoupled_mode_keeps_unit_magnitude():
    res = MechanicalResonator(omega_m=TWO_PI * 1e6, mass=1e-14, quality_factor=1e4, thickness=1e-7)
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(resonator_1=res, resonator_2=res, cavity_1=cav, cavity_2=cav, coupling_j=0.0)
    traj = propagate_exact(system, (1.0, 0.0), 1e-4, 5e-8)
    assert np.max(np.abs(np.abs(traj.a1) - 1.0)) < 1e-12
    assert np.max(np.abs(traj.a2)) == 0.0
    # phase evolves as e^{-i omega t}
    want = np.exp(-1j * res.omega_m * traj.times)
    assert np.max(np.abs(traj.a1 - want)) < 1e-9


def test_rabi_exchange_between_identical_modes():
    system = _lossless_pair()
    j = system.coupling_j
    duration = math.pi / j  # one full exchange
    traj = propagate_exact(system, (1.0, 0.0), duration, duration / 1200.0)
    p2 = np.abs(traj.a2) ** 2
    want = np.sin(j * traj.times) ** 2
    assert np.max(np.abs(p2 - want)) < 1e-10
    total = np.abs(traj.a1) ** 2 + p2
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_propagator_is_linear(device, device_n0):
    system = device.with_photon_number(0.7 * device_n0)
    duration, dt = 2e-8, 0.9 * _sampling_limit(device.with_photon_number(0.7 * device_n0))
    x = propagate_exact(system, (0.8, 0.1j), duration, dt)
    y = propagate_exact(system, (-0.2j, 1.0), duration, dt)
    combo = propagate_exact(system, (0.8 + 2.0 * -0.2j, 0.1j + 2.0), duration, dt)
    assert np.max(np.abs(combo.a1 - (x.a1 + 2.0 * y.a1))) < 1e-12
    assert np.max(np.abs(combo.a2 - (x.a2 + 2.0 * y.a2))) < 1e-12


def test_energy_decays_when_both_arms_lossy():
    system = _lossless_pair(gamma_m=2e3)
    traj = propagate_exact(system, (1.0, 0.5j), 1e-4, 5e-8)
    energy = np.abs(traj.a1) ** 2 + np.abs(traj.a2) ** 2
    assert (np.diff(energy) <= 0.0).all()
    assert energy[-1] < 0.9 * energy[0]


@pytest.mark.parametrize("kappa_2_factor", [1.0, 1.2], ids=["reference", "kappa_mismatched"])
def test_exact_propagator_matches_expm_at_device_ep(device, kappa_2_factor):
    # each device at its own EP and on both sides of it, one closed form for
    # all: the worst error measured is 2.2e-14
    device = _kappa_mismatched(device, kappa_2_factor)
    n0 = ep_photon_number(device)
    for ratio in [1.0, 0.0, 0.3, 0.999, 1.001, 3.0]:
        system = device.with_photon_number(ratio * n0)
        dt = min(1e-10, _sampling_limit(system))
        traj = propagate_exact(system, (1.0, 0.0), 200 * dt, dt)
        picks = [1, 17, 101, len(traj) - 1]
        ref = _expm_reference(system, np.array([1.0, 0.0], dtype=complex), traj.times[picks])
        got = np.stack([traj.a1[picks], traj.a2[picks]], axis=1)
        err = np.abs(got - ref).max() / np.abs(ref).max()
        assert err < 1e-12, ratio


def test_defective_propagator_matches_expm():
    # deep strong coupling: J = 20 omega_m; the eigenvector matrix at the
    # EP is numerically defective, which the closed form never inverts
    res = MechanicalResonator(omega_m=TWO_PI * 1e6, mass=5.3e-15, quality_factor=1e5, thickness=8e-8)
    system = balanced_system(res, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 2e7)
    biased = system.with_photon_number(ep_photon_number(system))
    cond = np.linalg.cond(np.linalg.eig(mode_matrix(biased))[1])
    assert cond > 1e8  # premise: this parameter set really is defective

    # the float grid leaves |disc| ~ 8 eps J^2 (sqrt ~ 2 rad/s here), which
    # the closed form keeps: over a few thousand cycles the match is parts
    # in 1e10
    a0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_exact(biased, a0, 3.2e-6, 8e-8)
    picks = [1, 5, 20, len(traj) - 1]
    ref = _expm_reference(biased, a0, traj.times[picks])
    got = np.stack([traj.a1[picks], traj.a2[picks]], axis=1)
    for row_got, row_ref in zip(got, ref):
        assert np.abs(row_got - row_ref).max() / np.abs(row_ref).max() < 1e-9


def test_defective_growth_is_linear_in_time():
    res = MechanicalResonator(omega_m=TWO_PI * 1e6, mass=5.3e-15, quality_factor=1e5, thickness=8e-8)
    system = balanced_system(res, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 2e7)
    biased = system.with_photon_number(ep_photon_number(system))
    traj = propagate_exact(biased, (1.0, 0.0), 4e-5, 8e-8)
    norm = np.sqrt(np.abs(traj.a1) ** 2 + np.abs(traj.a2) ** 2)
    half = (len(traj) - 1) // 2
    # at the EP n(t) ~ t |N a0| for J t >> 1 (sqrt(disc) t stays small
    # here, so the secular term grows linearly): doubling t doubles the norm
    assert norm[-1] / norm[half] == pytest.approx(2.0, rel=1e-3)
    assert norm[-1] > 100.0  # secular growth actually happened


@pytest.mark.parametrize(
    "kappa_2_factor, drive",
    # the default simulate drive, strained by h = 1e-4 off the EP; and the
    # mismatched device at its own EP
    [(1.0, (1.0 - 2.0 * 1e-4) ** 2), (1.2, 1.0)],
    ids=["strained_default", "kappa_mismatched_ep"],
)
def test_exact_propagator_matches_high_precision_reference_across_table_seams(device, kappa_2_factor, drive):
    # The propagator comes from a table of B = _PHASE_BLOCK offsets and of
    # block starts, so a run of more than 5 B samples crosses five block
    # seams; the picks sit on both sides of the first two.
    device = _kappa_mismatched(device, kappa_2_factor)
    system = device.with_photon_number(drive * ep_photon_number(device))
    dt = _sampling_limit(system)
    block = _PHASE_BLOCK
    n = 5 * block + 7
    traj = propagate_exact(system, (1.0, 0.0), (n - 1) * dt, dt)
    assert len(traj) == n
    _assert_within_seam_bound(system, traj, [1, block - 1, block, block + 1, 2 * block, n - 1])


@pytest.mark.parametrize("floats_from_n0", [-10, -5, 5, 10, 1000, 10**6])
def test_exact_propagator_error_just_outside_the_ep_band(device, floats_from_n0):
    # A few floats from n0, |disc| is a few eps J^2, on either side of the
    # EP rule's threshold 8 eps J^2. The closed form has no projector
    # (I +- N / s) / 2 to cancel there, so the seam bound holds with no
    # slack term for a small |s|: on the reference device and on one with
    # cavity 2 20% wider, each from its own n0.
    block = _PHASE_BLOCK
    for kappa_2_factor in (1.0, 1.2):
        mismatched = _kappa_mismatched(device, kappa_2_factor)
        system = mismatched.with_photon_number(_floats_from(ep_photon_number(mismatched), floats_from_n0))
        traj = propagate_exact(system, (1.0, 0.0), 2e-6)
        _assert_within_seam_bound(system, traj, [1, block - 1, block, block + 1, len(traj) - 1])


@settings(max_examples=50)
@given(
    floats_from_n0=st.integers(-(1 << 40), 1 << 40),
    kappa_2_factor=st.floats(1.0, 1.3),
)
def test_exact_propagator_is_within_the_seam_bound_near_the_ep(device, floats_from_n0, kappa_2_factor):
    # up to 2^40 floats (2.4e-4 relative) from a device's own EP, on either
    # side, with a cavity 2 up to 30% wider
    device = _kappa_mismatched(device, kappa_2_factor)
    system = device.with_photon_number(_floats_from(ep_photon_number(device), floats_from_n0))
    traj = propagate_exact(system, (1.0, 0.0), 2e-6)
    block = _PHASE_BLOCK
    _assert_within_seam_bound(system, traj, [1, block - 1, block, block + 1, len(traj) - 1])


def test_decaying_pair_with_a_wide_loss_split_stays_finite(device, device_n0):
    # both cavities red-detuned, so both supermodes decay, at Im lambda =
    # -6.3e8 and -3.1e9 rad/s: cos(s t) alone overflows past |Im s| t = 709,
    # some 6,000 samples in, though the state it multiplies decays
    red = device.cavity_2
    system = dataclasses.replace(device, cavity_1=red, cavity_2=dataclasses.replace(red, kappa=0.2 * red.kappa))
    system = system.with_photon_number(10.0 * device_n0)
    assert (np.linalg.eigvals(mode_matrix(system)).imag < -6e8).all()
    traj = propagate_exact(system, (1.0, 0.0), 1e-6)
    assert len(traj) > 6000
    _assert_within_seam_bound(system, traj, [1, _PHASE_BLOCK, len(traj) - 1])


# ---------------------------------------------------------------------------
# sampling guards
# ---------------------------------------------------------------------------


def test_sampling_guard_rejects_coarse_step(device, device_n0):
    system = device.with_photon_number(device_n0)
    limit = _sampling_limit(system)
    with pytest.raises(SamplingTooCoarseError):
        propagate_exact(system, (1.0, 0.0), 1e-7, 1.2 * limit)
    with pytest.raises(SamplingTooCoarseError):
        propagate_rk(system, (1.0, 0.0), 1e-7, 1.2 * limit)


def test_sampling_guard_accepts_the_boundary(device, device_n0):
    system = device.with_photon_number(device_n0)
    limit = _sampling_limit(system)
    traj = propagate_exact(system, (1.0, 0.0), 20.0 * limit, limit)
    assert len(traj) == 21


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0], ids=["pt_phase", "ep", "broken"])
def test_default_step_is_the_sampling_bound(device, device_n0, ratio):
    # 0.1 * 2 pi / max|Re lambda| of the analytic pair, bit for bit, and the
    # guard refuses a step just above it
    system = device.with_photon_number(ratio * device_n0)
    pair = eigenvalues_general(system)
    bound = 0.1 * TWO_PI / max(abs(pair.lambda_plus.real), abs(pair.lambda_minus.real))
    for propagate in (propagate_exact, propagate_rk):
        assert propagate(system, (1.0, 0.0), 1e-8).dt == bound
        with pytest.raises(SamplingTooCoarseError):
            propagate(system, (1.0, 0.0), 1e-8, 1.00001 * bound)


def test_grid_range_errors(device):
    dt = 9e-11  # below the sampling limit, so only the grid can object
    with pytest.raises(InvalidRangeError):
        propagate_exact(device, (1.0, 0.0), 1e-7, 0.0)
    with pytest.raises(InvalidRangeError):
        propagate_exact(device, (1.0, 0.0), 1e-7, -1e-10)
    with pytest.raises(InvalidRangeError):
        propagate_exact(device, (1.0, 0.0), 0.5 * dt, dt)
    with pytest.raises(InvalidRangeError):
        propagate_exact(device, (1.0, 0.0), 2e-3, dt)  # > 1 << 24 samples
    for duration in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidRangeError, match=f"^duration = {duration!r} is not finite$"):
            propagate_exact(device, (1.0, 0.0), duration)


@pytest.mark.parametrize("propagate", [propagate_exact, propagate_rk])
def test_runaway_gain_raises_at_the_first_overflowing_sample(device, device_n0, propagate):
    # far above the EP the gain supermode grows as e^{Im(lambda) t}, here
    # about 1.4 e-folds a sample: the samples overflow some 500 steps in
    dt = 0.05 * TWO_PI / device.resonator_1.omega_m
    runaway = device.with_photon_number(device_n0 * (710.0 / (500 * dt)) / device.coupling_j)
    with pytest.raises(RunawayGainError, match=r"^the trajectory is not finite at t = ") as info:
        propagate(runaway, (1.0, 0.0), 2000 * dt, dt)
    first = int(re.search(r"sample (\d+) of 2001", str(info.value)).group(1))
    assert 0 < first < 2000
    # the samples before it are finite
    head = propagate(runaway, (1.0, 0.0), (first - 1) * dt, dt)
    assert len(head) == first
    assert np.isfinite(head.a1).all() and np.isfinite(head.a2).all()


@pytest.mark.parametrize(
    "propagate, n_cav, message",
    [
        # M is finite, but its discriminant overflows: no sample is valid
        pytest.param(propagate_exact, 1e200, "the eigenvalues overflow", id="propagate_exact"),
        pytest.param(propagate_rk, 1e200, "the eigenvalues overflow", id="propagate_rk"),
        # an entry of M itself overflows
        pytest.param(propagate_exact, 1e305, "the mode matrix overflows", id="propagate_exact-1e305"),
        pytest.param(propagate_rk, 1e305, "the mode matrix overflows", id="propagate_rk-1e305"),
    ],
)
def test_overflowing_spectrum_is_a_range_error(device, propagate, n_cav, message):
    with pytest.raises(InvalidRangeError, match=re.escape(f"n_cav = {n_cav!r}, {n_cav!r}: {message}")):
        propagate(device.with_photon_number(n_cav), (1.0, 0.0), 1e-8, 1e-11)


@pytest.mark.parametrize("propagate", [propagate_exact, propagate_rk])
def test_trajectory_grid_is_its_step_and_count(device, device_n0, propagate):
    # the trajectory keeps the caller's dt, and its times are k * dt, bit for bit
    system = device.with_photon_number(0.5 * device_n0)
    dt = 0.37 * _sampling_limit(system)
    traj = propagate(system, (1.0, 0.0), 333 * dt, dt)
    assert len(traj) == 334
    assert traj.dt == dt
    assert np.array_equal(traj.times, np.arange(len(traj)) * dt)


def test_long_grid_is_not_rechecked(device):
    # np.arange(n) * dt rounds by more than 1e-9 dt beyond ~6M samples; a
    # spacing check over the sample times used to reject this run
    dt = 7.9e-11
    traj = propagate_exact(device.with_photon_number(1e12), (1.0, 0.0), 4.9e-4, dt)
    assert len(traj) == 6_202_532
    assert traj.dt == 7.9e-11


@pytest.mark.parametrize("ratio", [0.5, 1.0], ids=["pt_phase", "ep"])
def test_exact_propagator_holds_one_array_of_amplitudes(device, device_n0, ratio):
    # the (2, N) amplitudes take 32 bytes a sample; the propagator table,
    # N / B block starts and B offsets, fits in a fixed few MB, whatever N
    # is. Building the (2, N) phases first takes 32 bytes a sample more.
    system = device.with_photon_number(ratio * device_n0)
    assert (eigenvalues_general(system).phase is Phase.EXCEPTIONAL_POINT) == (ratio == 1.0)
    n, dt = 1 << 20, 9e-11
    traj, peak = _traced_peak(propagate_exact, system, (1.0, 0.5), (n - 1) * dt, dt)
    assert len(traj) == n
    assert peak <= 32 * n + (4 << 20)


def test_finite_check_scans_the_samples_when_their_sum_is_not_finite():
    # the sum of the samples is only a fast path: finite samples whose sum
    # overflows are accepted, and a sample that is not finite is named
    big = np.full(4, 1e308 + 1e308j)
    assert len(Trajectory(1.0, big, -big)) == 4
    a1 = np.array([1.0, 1.0, np.inf, 1.0], dtype=complex)
    with pytest.raises(RunawayGainError, match=r"t = 2\.000000e\+00 s \(sample 2 of 4\)"):
        Trajectory(1.0, a1, np.zeros(4, dtype=complex))


def test_initial_state_must_be_a_pair(device):
    with pytest.raises(ValueError):
        propagate_exact(device, (1.0, 0.0, 0.0), 1e-8, 1e-10)


@pytest.mark.parametrize("propagate", [propagate_exact, propagate_rk])
@pytest.mark.parametrize("initial", [(math.nan, 0.0), (1.0, complex(0.0, math.inf))])
def test_initial_amplitude_that_is_not_finite_is_an_input_error(device, propagate, initial):
    # a bad input, named as one, not a runaway gain at t = 0
    with pytest.raises(InvalidRangeError, match="initial"):
        propagate(device, initial, 1e-8, 1e-10)


# ---------------------------------------------------------------------------
# Runge-Kutta cross-check
# ---------------------------------------------------------------------------


def _rk4_stages(m, a0, dt, steps):
    # the classical four-stage step of da/dt = -i M a, written out
    x = np.array(a0, dtype=complex)
    samples = [x]
    for _ in range(steps):
        k1 = -1j * (m @ x)
        k2 = -1j * (m @ (x + 0.5 * dt * k1))
        k3 = -1j * (m @ (x + 0.5 * dt * k2))
        k4 = -1j * (m @ (x + dt * k3))
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        samples.append(x)
    return np.array(samples)


@pytest.mark.parametrize("steps", [1, 1000])
@pytest.mark.parametrize("name", ["device_half_n0", "lossy_pair"])
def test_rk_step_is_the_four_stage_step(device, device_n0, name, steps):
    if name == "device_half_n0":
        system = device.with_photon_number(0.5 * device_n0)
    else:
        system = _lossless_pair(gamma_m=TWO_PI * 1e4)
    dt = 0.5 * _sampling_limit(system)
    a0 = (0.8, 0.6j)
    rk = propagate_rk(system, a0, steps * dt, dt)
    assert len(rk) == steps + 1
    ref = _rk4_stages(mode_matrix(system), a0, dt, steps)
    got = np.stack([rk.a1, rk.a2], axis=1)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_rk_converges_at_fourth_order():
    system = _lossless_pair()
    limit = _sampling_limit(system)
    duration = 40.0 * TWO_PI / system.resonator_1.omega_m

    def max_error(dt):
        rk = propagate_rk(system, (1.0, 0.0), duration, dt)
        exact = propagate_exact(system, (1.0, 0.0), duration, dt)
        return max(
            np.max(np.abs(rk.a1 - exact.a1)),
            np.max(np.abs(rk.a2 - exact.a2)),
        )

    coarse = max_error(limit / 2.0)
    fine = max_error(limit / 4.0)
    assert coarse / fine >= 14.0  # dt^4 scaling gives 16 in the limit


def test_rk_tracks_growing_solution(device, device_n0):
    # broken phase: one branch grows as e^{+|Im lambda| t}; relative
    # deviation against the closed form must still shrink at fourth order
    system = device.with_photon_number(2.0 * device_n0)
    eigenvalues = np.linalg.eigvals(mode_matrix(system))
    rate = float(np.max(eigenvalues.imag))
    assert rate > 0.0
    duration = min(9.0 / rate, 1e-7)
    limit = _sampling_limit(system)

    def rel_deviation(dt):
        rk = propagate_rk(system, (1.0, 0.0), duration, dt)
        exact = propagate_exact(system, (1.0, 0.0), duration, dt)
        scale = np.abs(exact.a1) + np.abs(exact.a2)
        return np.max((np.abs(rk.a1 - exact.a1) + np.abs(rk.a2 - exact.a2)) / scale)

    coarse = rel_deviation(limit / 2.0)
    fine = rel_deviation(limit / 4.0)
    assert coarse / fine >= 14.0


# ---------------------------------------------------------------------------
# spectral estimation
# ---------------------------------------------------------------------------


def _tone_trajectory(n, dt, tones):
    times = np.arange(n) * dt
    a1 = np.zeros(n, dtype=complex)
    for amp, omega, gamma in tones:
        a1 = a1 + amp * np.exp((-1j * omega - 0.5 * gamma) * times)
    return Trajectory(dt=dt, a1=a1, a2=np.zeros(n, dtype=complex))


def test_spectrum_locates_pure_tone():
    omega = 123.456
    traj = _tone_trajectory(4096, 1e-3, [(1.0, omega, 0.0)])
    est = estimate_spectrum(traj)
    assert len(est.peak_frequencies) == 1
    assert est.resolution == pytest.approx(TWO_PI / 4.096, rel=1e-12)
    assert abs(est.peak_frequencies[0] - omega) < est.resolution / 10.0


def test_spectrum_peaks_are_python_floats():
    est = estimate_spectrum(_tone_trajectory(4096, 1e-3, [(1.0, 123.456, 0.0)]))
    assert [type(value) for value in est.peak_frequencies + est.peak_linewidths] == [float, float]


def test_spectrum_without_a_local_maximum_has_no_peak():
    # a flat spectrum has no interior local maximum, so nothing is reported
    est = estimate_spectrum(Trajectory(dt=1e-10, a1=np.zeros(2048), a2=np.zeros(2048)))
    assert est.peak_frequencies == [] and est.peak_linewidths == []


def test_spectrum_separates_two_tones():
    w1, w2 = 200.0, 650.0
    traj = _tone_trajectory(8192, 1e-3, [(1.0, w1, 0.0), (0.5, w2, 0.0)])
    est = estimate_spectrum(traj)
    assert len(est.peak_frequencies) == 2
    assert abs(est.peak_frequencies[0] - w1) < est.resolution / 10.0
    assert abs(est.peak_frequencies[1] - w2) < est.resolution / 10.0


def test_spectrum_suppresses_sidelobe_level_tone():
    # a 3 percent companion sits below the 5 percent acceptance floor
    traj = _tone_trajectory(8192, 1e-3, [(1.0, 200.0, 0.0), (0.03, 650.0, 0.0)])
    est = estimate_spectrum(traj)
    assert len(est.peak_frequencies) == 1
    assert abs(est.peak_frequencies[0] - 200.0) < est.resolution / 10.0


def test_spectrum_estimates_damped_linewidth():
    omega = 300.0
    traj = _tone_trajectory(8192, 1e-3, [(1.0, omega, 0.0)])
    gamma = 5.0 * estimate_spectrum(traj).resolution
    traj = _tone_trajectory(8192, 1e-3, [(1.0, omega, gamma)])
    est = estimate_spectrum(traj)
    assert abs(est.peak_frequencies[0] - omega) < est.resolution
    assert 0.4 * gamma < est.peak_linewidths[0] < 1.3 * gamma


def test_spectrum_of_split_supermodes(device, device_n0):
    biased = device.with_photon_number(0.5 * device_n0)
    pair = eigenvalues_general(biased)
    dt = 9e-11
    traj = propagate_exact(biased, (1.0, 0.5), 16384 * dt, dt)
    est = estimate_spectrum(traj)
    assert len(est.peak_frequencies) == 2
    got = sorted(est.peak_frequencies)
    want = sorted([pair.lambda_minus.real, pair.lambda_plus.real])
    for g, w in zip(got, want):
        assert abs(g - w) < est.resolution / 10.0


def test_spectrum_collapses_to_single_peak_at_ep(device, device_n0):
    biased = device.with_photon_number(device_n0)
    traj = propagate_exact(biased, (1.0, 0.5), 1.6384e-6, 1e-10)
    est = estimate_spectrum(traj)
    assert len(est.peak_frequencies) == 1
    assert abs(est.peak_frequencies[0] - device.resonator_1.omega_m) < est.resolution


def test_readout_holds_the_padded_dft_and_its_magnitude():
    # 16 bytes a bin for the padded DFT, transformed in place, and 8 for its
    # magnitude; a second complex array of m bins would add 16 more
    n = 1 << 20
    traj = _tone_trajectory(n, 1e-3, [(1.0, 123.456, 0.0)])
    assert _fft_length(n) == n
    est, peak = _traced_peak(estimate_spectrum, traj)
    assert abs(est.peak_frequencies[0] - 123.456) < est.resolution / 10.0
    assert peak <= 24 * n + (2 << 20)


@pytest.mark.parametrize("ratio", [0.5, 1.0], ids=["pt_phase", "ep"])
def test_simulate_readout_holds_no_trajectory(device, device_n0, ratio):
    # mode 1 goes straight into the padded DFT, 16 bytes a bin, and its
    # magnitude takes 8 more; estimate_spectrum(propagate_exact(...)) holds
    # the (2, N) amplitudes besides, 32 bytes a sample more
    system = device.with_photon_number(ratio * device_n0)
    n, dt = 1 << 20, 9e-11
    assert _fft_length(n) == n
    (est, samples, step), peak = _traced_peak(_mode_1_spectrum, system, (1.0, 0.0), (n - 1) * dt, dt)
    assert (samples, step) == (n, dt)
    assert len(est.peak_frequencies) == (1 if ratio == 1.0 else 2)
    assert peak <= 24 * n + (2 << 20)


@pytest.mark.parametrize(
    "ratio, n, initial",
    [
        (0.5, 104_729, (1.0, 0.5)),  # prime
        (0.5, 342_195, (1.0, 0.5)),  # 3 5 7 3259
        (0.8, 480_336, (0.3, 1.0)),  # 2^4 3 10,007
        (1.0, 65_537, (1.0, 0.0)),  # prime
        (1.0, 208_029, (1.0, 0.5)),  # 3 17 4079
    ],
)
def test_readout_on_sample_counts_with_a_large_prime_factor(device, device_n0, ratio, n, initial):
    # below the EP both supermodes, at the EP the one coalesced mode; the
    # padded DFT reads each within a tenth of its bin spacing 2 pi / (m dt)
    assert _largest_prime_factor(n) > 1000
    system = device.with_photon_number(ratio * device_n0)
    pair = eigenvalues_general(system)
    dt = 9e-11
    traj = propagate_exact(system, initial, (n - 1) * dt, dt)
    assert len(traj) == n
    est = estimate_spectrum(traj)
    assert est.resolution == TWO_PI * (1.0 / (_fft_length(n) * dt))
    want = sorted({pair.lambda_minus.real, pair.lambda_plus.real})
    assert len(want) == (1 if ratio == 1.0 else 2)
    got = sorted(est.peak_frequencies)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < est.resolution / 10.0


def test_spectrum_needs_enough_samples():
    traj = _tone_trajectory(512, 1e-3, [(1.0, 100.0, 0.0)])
    with pytest.raises(TooFewSamplesError):
        estimate_spectrum(traj)


def test_peak_bins_of_equal_magnitudes_take_the_lower_bin_first():
    # three equal maxima: the two lowest bins, in bin order
    assert _peak_bins(np.array([0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0])) == [3, 5]
    assert _peak_bins(np.array([0.0, 2.0, 0.0, 2.0, 0.0])) == [1, 3]


def test_the_largest_grid_has_exactly_the_sample_cap():
    # duration/dt = 2^24 - 1 spans 2^24 samples, the most a grid may have;
    # at 2^24 steps the count is refused, before anything is allocated
    assert _sample_count(float(_MAX_SAMPLES - 1), 1.0) == _MAX_SAMPLES
    with pytest.raises(InvalidRangeError, match=r"^duration/dt = 1\.677722e\+07 yields more than 16777216 samples$"):
        _sample_count(float(_MAX_SAMPLES), 1.0)
