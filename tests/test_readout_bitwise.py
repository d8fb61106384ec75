"""Bitwise equivalence of the in-place spectral readout with a plain one.

``estimate_spectrum`` windows by a mirrored half window, transforms in
place and writes the magnitude in shifted order; ``simulate``'s readout,
``dynamics._mode_1_spectrum``, also writes mode 1 straight into the padded
DFT, with no trajectory. Each must agree bit for bit with the plain
reference, ``oracle.readout_reference`` (np.hanning, np.fft.fft and
np.fft.fftshift), or with ``estimate_spectrum(propagate_exact(...))``:
every peak frequency, linewidth and the resolution.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from oracle import readout_reference  # noqa: E402

from epgw import Trajectory, estimate_spectrum, propagate_exact  # noqa: E402
from epgw.dynamics import _mode_1_spectrum  # noqa: E402


def _bits(estimate):
    return (
        [f.hex() for f in estimate.peak_frequencies],
        [w.hex() for w in estimate.peak_linewidths],
        estimate.resolution.hex(),
    )


def _samples(n, seed):
    """n samples of up to three tones and a little noise, drawn from seed."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    a1 = 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for _ in range(rng.integers(1, 4)):
        a1 += rng.uniform(0.1, 1.0) * np.exp(-1j * rng.uniform(-np.pi, np.pi) * k - rng.uniform(0.0, 4.0 / n) * k)
    return a1


@settings(max_examples=60)
@given(n=st.integers(1024, 20_000), seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-12, 1e3))
@example(n=4096, seed=1, dt=1e-3)  # even, 5-smooth
@example(n=3375, seed=2, dt=1e-3)  # odd, 5-smooth: 3^3 5^3
@example(n=4098, seed=3, dt=1e-3)  # even, not: 2 3 683
@example(n=10_007, seed=4, dt=1e-3)  # odd, prime
def test_estimate_spectrum_matches_the_plain_readout_bit_for_bit(n, seed, dt):
    a1 = _samples(n, seed)
    trajectory = Trajectory(dt=dt, a1=a1, a2=np.zeros(n, dtype=complex))
    assert _bits(estimate_spectrum(trajectory)) == _bits(readout_reference(trajectory))


# (photon number in units of the EP's, strain h): the strained drive is
# n0 (1 - 2h)^2, as simulate makes it
DRIVES = {
    "pt-phase": (1.0, 1e-4),  # simulate's default
    "broken-phase": (1.0, -1e-4),  # given a --duration
    "at-ep": (1.0, 0.0),
    "h=0": (0.5, 0.0),
}


@settings(max_examples=40)
@given(
    drive=st.sampled_from(sorted(DRIVES)),
    n=st.integers(1024, 12_000),
    initial=st.sampled_from([(1.0, 0.0), (0.3, 1.0)]),
    dt=st.sampled_from([9e-11, None]),
)
# the whole blocks of 1024 samples, ceil(n / 1024) 1024, against m = _fft_length(n)
@example(drive="pt-phase", n=1025, initial=(1.0, 0.0), dt=9e-11)  # 2048 > m = 1080
@example(drive="broken-phase", n=3000, initial=(1.0, 0.0), dt=9e-11)  # 3072 > m = 3000
@example(drive="at-ep", n=3072, initial=(1.0, 0.0), dt=9e-11)  # 3072 = m
@example(drive="h=0", n=7168, initial=(1.0, 0.0), dt=9e-11)  # 7168 < m = 7200
def test_simulate_readout_matches_the_trajectory_pipeline_bit_for_bit(device, device_n0, drive, n, initial, dt):
    ratio, h = DRIVES[drive]
    system = device.with_photon_number(ratio * device_n0 * (1.0 - 2.0 * h) ** 2)
    duration = (n - 1) * (dt or 1e-10)  # the default step is a little below 1e-10 s
    trajectory = propagate_exact(system, initial, duration, dt)
    estimate, samples, step = _mode_1_spectrum(system, initial, duration, dt)
    assert (samples, step) == (len(trajectory), trajectory.dt)
    assert _bits(estimate) == _bits(estimate_spectrum(trajectory))


@pytest.mark.parametrize("n", [1025, 4097, 100_001])
def test_odd_middle_sample_is_windowed_once(monkeypatch, n):
    # the window's middle sample, cos(0) = 1, is exact, so a second
    # multiply would not show: a cos that reads 0.5 there makes it show,
    # and a spy on the DFT reads the windowed samples it is given
    cos, fft = np.cos, np.fft.fft
    seen = []

    def cos_half_at_zero(x, *args, **kwargs):
        return np.where(x == 0.0, 0.5, cos(x, *args, **kwargs))

    def spy(a, *args, **kwargs):
        seen.append(a.copy())
        return fft(a, *args, **kwargs)

    a1 = _samples(n, n)
    monkeypatch.setattr(np, "cos", cos_half_at_zero)
    monkeypatch.setattr(np.fft, "fft", spy)
    estimate_spectrum(Trajectory(dt=1.0, a1=a1, a2=a1))
    monkeypatch.undo()
    (windowed,) = seen
    window = np.hanning(n)
    window[n // 2] = 0.75
    assert np.array_equal(windowed[:n], window * a1)
    assert windowed[n // 2] == 0.75 * a1[n // 2]
