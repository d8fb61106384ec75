"""Properties of the readout's two arithmetic rules: the 5-smooth DFT
length and the top-two peak selection.

Both are checked against a plain reference: the sorted list of every
5-smooth count up to the sample cap (exhaustively for counts up to 10^4),
and the full sort of every local maximum that the selection replaced. No
trajectory is built.
"""

import bisect

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from epgw.dynamics import _MAX_SAMPLES, _SECOND_PEAK_FRACTION, _fft_length, _peak_bins, _sample_count  # noqa: E402

# every 2^a 3^b 5^c up to the sample cap, ascending
SMOOTH = sorted(
    2**a * 3**b * 5**c for a in range(25) for b in range(16) for c in range(11) if 2**a * 3**b * 5**c <= _MAX_SAMPLES
)


def test_fft_length_takes_the_next_5_smooth_count():
    assert len(SMOOTH) == 836 and SMOOTH[-1] == _MAX_SAMPLES
    # every count up to 10^4
    for n in range(1, 10_001):
        assert _fft_length(n) == SMOOTH[bisect.bisect_left(SMOOTH, n)]


@given(
    steps=st.integers(1, _MAX_SAMPLES - 1),
    fraction=st.floats(0.0, 0.5),
    dt=st.floats(1e-15, 1e-3),
)
@example(steps=1_768_532, fraction=0.0, dt=9.997172796648496e-11)  # the reference device's 100 beats
@example(steps=_MAX_SAMPLES - 1, fraction=0.5, dt=1e-3)
def test_fft_length_of_any_grid_is_the_next_5_smooth_count(steps, fraction, dt):
    # every sample count a grid within the cap can have
    n = _sample_count((steps + fraction) * dt, dt)
    m = _fft_length(n)
    assert m == SMOOTH[bisect.bisect_left(SMOOTH, n)]
    assert n <= m <= _MAX_SAMPLES


def _full_sort_peaks(mag):
    """The selection as a full sort of every interior local maximum."""
    interior = np.arange(1, len(mag) - 1)
    candidates = interior[(mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])]
    candidates = candidates[np.argsort(mag[candidates])[::-1]]
    second = candidates.size > 1 and mag[candidates[1]] >= _SECOND_PEAK_FRACTION * mag[candidates[0]]
    return candidates[: 2 if second else 1].tolist()


@given(st.lists(st.floats(0.0, 1e6), min_size=3, max_size=400, unique=True))
def test_top_two_selection_matches_a_full_sort(values):
    mag = np.array(values)
    assert _peak_bins(mag) == _full_sort_peaks(mag)
