"""The cases both float formatters of ``epgw._format`` must pass, each
against the Python formatting it stands in for, on the edge values of
both: ``format_e16`` against ``"%.16e" % x`` (CSV cells) and
``format_repr`` against ``float.__repr__`` (JSON cells).

Written once, run once per formatter: test_csv_writer.py and
test_json_writer.py import these tests, so that they are collected there
under those modules' test ids, and each defines the module-scoped
``formatter`` fixture they take, its (formatter, reference) pair."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epgw import _format

MIN_NORMAL = 2.2250738585072014e-308


def cells(formatter, values):
    """The formatter's cells as text, NUL bytes dropped."""
    return [bytes(row).replace(b"\0", b"").decode() for row in formatter(np.array(values, dtype=float))]


def fallback_counts(write, monkeypatch):
    """How many cells ``write`` hands to CPython's formatter (_format._fall_back)
    in each of two seeded draws: 2^16 uniform from -1e3 to 1e3, and 2^16
    evenly spaced from 1e11 to 5e12. The bytes do not show this count: a
    fallback cell has the same text, written several times slower."""
    counts, fall_back = [], _format._fall_back

    def counted(cells, x, fallback, text):
        counts.append(len(fallback))
        return fall_back(cells, x, fallback, text)

    monkeypatch.setattr(_format, "_fall_back", counted)
    for values in (np.random.default_rng(22).uniform(-1e3, 1e3, 2**16), np.linspace(1e11, 5e12, 2**16)):
        write(values)
    return counts


def _neighbours(x):
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# %.16e: doubles below a power of ten whose 17 digits round up to it, so
# the digits carry to 10^17: the in-range ones among all powers 1e-320..1e308.
ROUND_UP_TO_POWER = [1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98, 1e129, 1e153, 1e220]

# %.16e: exact ties, whose exact decimal has 18 significant digits and
# ends in 5, so %.16e rounds half to even. m 5^k has 18 digits for odd m.
PERCENT_TIES = [800000000000001 / 2**3, 800000000000003 / 2**3, 4000000000000001 / 2**2, 1280000000001 / 2**7, 1 / 2**25]

# repr: doubles whose shortest decimal lies exactly half a gap away, so
# that it reads back only because the double's last bit is even.
GAP_EDGES = [3.092535278770144e18, 6.429560891534334e16, 2.109793591122499e16]

# repr: exact ties between two 17-digit decimals, rounded half to even.
REPR_TIES = [1113178120592002.25, 2.9802322387695312e-08]

# repr: where it turns from fixed to exponent notation, and back
NOTATION_EDGES = [
    *_neighbours(1e-4),
    *_neighbours(1e-5),
    *_neighbours(1e16),
    9999999999999998.0,
    999999999999999.9,
    0.00010000000000000002,
]

EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    math.nextafter(MIN_NORMAL, 0.0),
    MIN_NORMAL,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    math.inf,
    -math.inf,
    math.nan,
    *_neighbours(1e-280),  # the array path's edges, and just past them
    *_neighbours(1e-281),
    *_neighbours(1e290),
    *_neighbours(1e291),
    *ROUND_UP_TO_POWER,
    *PERCENT_TIES,
    *GAP_EDGES,
    *REPR_TIES,
    *NOTATION_EDGES,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_power_of_ten_and_its_neighbours(formatter, sign):
    write, reference = formatter
    values = [sign * y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))]
    assert cells(write, values) == list(map(reference, values))


def test_edges(formatter):
    write, reference = formatter
    assert cells(write, EDGES) == list(map(reference, EDGES))
    assert cells(write, []) == []


@settings(max_examples=300)
@given(bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
@example(bits=[struct.unpack("<Q", struct.pack("<d", x))[0] for x in EDGES])
def test_any_bit_pattern(formatter, bits):
    write, reference = formatter
    values = [_from_bits(b) for b in bits]
    assert cells(write, values) == list(map(reference, values))


def test_seeded_bulk_draws(formatter):
    write, reference = formatter
    draws = [np.linspace(1e11, 5e12, 100_000), np.linspace(-1.0, 1.0, 100_001)]
    for seed in (20260, 20261):
        rng = np.random.default_rng(seed)
        draws += [
            rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64),
            rng.uniform(-1e3, 1e3, 100_000),
            10.0 ** rng.uniform(-300, 300, 100_000),
        ]
    for values in draws:
        values = values.tolist()
        assert cells(write, values) == list(map(reference, values))
