"""The JSON writer: ``_format.format_repr`` against ``float.__repr__``, and
``cli.render_json`` against the ``json.dumps`` of row tuples it replaced."""

import json
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from epgw import Phase  # noqa: E402
from epgw._format import format_repr  # noqa: E402
from epgw.cli import _ATTR, _BLOCK_ROWS, RunConfig, _table_rows, render_json  # noqa: E402

MIN_NORMAL = 2.2250738585072014e-308

# Doubles whose shortest decimal lies exactly half a gap away, so that it
# reads back only because the double's last bit is even.
GAP_EDGES = [3.092535278770144e18, 6.429560891534334e16, 2.109793591122499e16]

# Exact ties between two 17-digit decimals, which repr rounds half to even.
TIES = [1113178120592002.25, 2.9802322387695312e-08]


def _text(values):
    """format_repr's cells as text, NUL bytes dropped."""
    return [bytes(row).replace(b"\0", b"").decode() for row in format_repr(np.array(values, dtype=float))]


def _repr(values):
    return [repr(value) for value in values]


def _neighbours(x):
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


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
    *GAP_EDGES,
    *TIES,
]

# where repr turns from fixed to exponent notation, and back
NOTATION_EDGES = [
    *_neighbours(1e-4),
    *_neighbours(1e-5),
    *_neighbours(1e16),
    9999999999999998.0,
    999999999999999.9,
    0.00010000000000000002,
]


def test_gap_edges_and_ties_are_exact():
    for x in GAP_EDGES:
        assert abs(Fraction(repr(x)) - Fraction(x)) == Fraction(math.ulp(x)) / 2
    for x in TIES:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_power_of_two(sign):
    # below a power of two the gap is half as wide as above it
    values = [sign * math.ldexp(1.0, k) for k in range(-1022, 1024)]
    assert _text(values) == _repr(values)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_power_of_ten_and_its_neighbours(sign):
    values = [sign * y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))]
    assert _text(values) == _repr(values)


def test_notation_edges():
    assert _text(NOTATION_EDGES) == _repr(NOTATION_EDGES)
    assert _text([1e-4, 1e-5, 1e16, 9999999999999998.0]) == ["0.0001", "1e-05", "1e+16", "9999999999999998.0"]


def test_short_decimals():
    values = [0.1 * k for k in range(-2000, 2001)] + [3600.0, 5.3e-15, 1e16, 1.5e16, 100.0, 1e5, 0.5, 0.25]
    assert _text(values) == _repr(values)


def test_edges():
    assert _text(EDGES) == _repr(EDGES)
    assert _text([]) == []


@settings(max_examples=300)
@given(bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
@example(bits=[struct.unpack("<Q", struct.pack("<d", x))[0] for x in EDGES + NOTATION_EDGES])
def test_any_bit_pattern_formats_as_repr(bits):
    values = [_from_bits(b) for b in bits]
    assert _text(values) == _repr(values)


def test_seeded_bulk_draws():
    rng = np.random.default_rng(20261)
    draws = [
        rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64),
        rng.uniform(-1e3, 1e3, 100_000),
        10.0 ** rng.uniform(-300, 300, 100_000),
        np.linspace(1e11, 5e12, 100_000),
        np.linspace(-1.0, 1.0, 100_001),
    ]
    for values in draws:
        values = values.tolist()
        assert _text(values) == _repr(values)


def _dumps(cfg, command, flags, table, overlays=None):
    """The path render_json replaced: the table as row tuples of Python
    values, a phase through a default hook, all through one json.dumps."""
    payload = {
        "command": command,
        "config": {key: getattr(cfg, attr) for key, attr in _ATTR.items()},
        "flags": flags,
        "columns": list(table),
        "rows": list(zip(*(column.tolist() for column in table.values()))),
    }
    if overlays:
        payload["overlays"] = overlays
    return json.dumps(payload, sort_keys=True, allow_nan=False, default=lambda phase: phase.value) + "\n"


def _render(table, overlays=None, flags=None):
    flags = {"points": len(next(iter(table.values())))} if flags is None else flags
    return render_json(RunConfig(), "sweep-ncav", flags, list(table), _table_rows(table), overlays)


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
def test_render_json_matches_json_dumps(n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = 0.0
    floats[::11] = -0.0
    table = {
        "x": floats,
        "peak": rng.integers(-(2**62), 2**62, n),
        "phase": np.array(list(Phase), dtype=object)[rng.integers(0, 3, n)],
        "y": rng.uniform(0.0, 1.0, n),
    }
    overlays = {
        "référence.csv": [(1.0, 1e-24), (10.0, -0.0), (0.1, 3.5e-22)],  # a name json.dumps escapes
        "empty.csv": [],
        "grid.csv": list(zip(np.geomspace(1e-7, 1e3, n).tolist(), (10.0 ** rng.uniform(-24, -18, n)).tolist())),
    }
    flags = {"points": n, "min": 0.1, "overlay": sorted(overlays), "log": False}
    assert _render(table, overlays, flags) == _dumps(RunConfig(), "sweep-ncav", flags, table, overlays)
    assert _render(table) == _dumps(RunConfig(), "sweep-ncav", {"points": n}, table)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["rows", "overlay"])
def test_render_json_refuses_a_cell_that_is_not_finite(bad, where):
    table = {"x": np.array([1.0, 2.0, 3.0]), "peak": np.arange(3)}
    overlays = {"reference.csv": [(1.0, 1e-24), (2.0, 1e-23)]}
    if where == "rows":
        table["x"][1] = bad
    else:
        overlays["reference.csv"][1] = (bad, 1e-23)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant$"):
        _render(table, overlays)


def test_render_json_writes_in_blocks():
    # The cells are written a block of rows at a time, so the peak is the
    # text twice (its blocks, then their join) and a block's scratch: 242
    # bytes per row on this table, against 458 for a Python float per cell
    # and a tuple per row, through json.dumps.
    n = 100_000
    rng = np.random.default_rng(5)
    table = {f"c{k}": rng.standard_normal(n) for k in range(5)}
    table["phase"] = np.array(list(Phase), dtype=object)[rng.integers(0, 3, n)]
    rows = _table_rows(table)
    tracemalloc.start()
    try:
        text = render_json(RunConfig(), "sweep-ncav", {}, list(table), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(text)["rows"]) == n
    assert peak <= 2 * len(text) + (2 << 20)
