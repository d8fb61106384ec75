"""The JSON writer: ``_format.format_repr`` against ``float.__repr__``, and
``cli.render_json`` against the ``json.dumps`` of row tuples it replaced.
The cases both formatters share are in formatter_cases.py."""

import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from epgw import Phase  # noqa: E402
from epgw._format import format_repr  # noqa: E402
from epgw.cli import _ATTR, _BLOCK_ROWS, RunConfig, _table_rows, render_json  # noqa: E402
from formatter_cases import (  # noqa: E402,F401  the shared cases, collected and run here on format_repr
    GAP_EDGES,
    NOTATION_EDGES,
    REPR_TIES,
    cells,
    test_any_bit_pattern as test_any_bit_pattern_formats_as_repr,
    test_edges,
    test_every_power_of_ten_and_its_neighbours,
    test_seeded_bulk_draws,
)


@pytest.fixture(scope="module")
def formatter():
    return format_repr, repr


def _text(values):
    return cells(format_repr, values)


def _repr(values):
    return [repr(value) for value in values]


def test_gap_edges_and_ties_are_exact():
    for x in GAP_EDGES:
        assert abs(Fraction(repr(x)) - Fraction(x)) == Fraction(math.ulp(x)) / 2
    for x in REPR_TIES:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_power_of_two(sign):
    # below a power of two the gap is half as wide as above it
    values = [sign * math.ldexp(1.0, k) for k in range(-1022, 1024)]
    assert _text(values) == _repr(values)


def test_notation_edges():
    assert _text(NOTATION_EDGES) == _repr(NOTATION_EDGES)
    assert _text([1e-4, 1e-5, 1e16, 9999999999999998.0]) == ["0.0001", "1e-05", "1e+16", "9999999999999998.0"]


def test_short_decimals():
    values = [0.1 * k for k in range(-2000, 2001)] + [3600.0, 5.3e-15, 1e16, 1.5e16, 100.0, 1e5, 0.5, 0.25]
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


def _json(*args):
    """render_json's file as text: its chunks joined and decoded."""
    return b"".join(render_json(*args)).decode()


def _render(table, overlays=None, flags=None):
    """render_json's text, each overlay's (frequency_hz, strain) pairs
    passed as the (n, 2) float array read_overlay_csv returns."""
    flags = {"points": len(next(iter(table.values())))} if flags is None else flags
    arrays = {name: np.array(pairs, dtype=float).reshape(-1, 2) for name, pairs in (overlays or {}).items()}
    return _json(RunConfig(), "sweep-ncav", flags, list(table), _table_rows(table), arrays)


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
    # file once (its blocks) and a block's scratch, against 458 bytes per
    # row on this table for a Python float per cell and a tuple per row,
    # through json.dumps.
    n = 100_000
    rng = np.random.default_rng(5)
    table = {f"c{k}": rng.standard_normal(n) for k in range(5)}
    table["phase"] = np.array(list(Phase), dtype=object)[rng.integers(0, 3, n)]
    rows = _table_rows(table)
    tracemalloc.start()
    try:
        chunks = render_json(RunConfig(), "sweep-ncav", {}, list(table), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = b"".join(chunks).decode()
    assert len(json.loads(text)["rows"]) == n
    assert peak <= len(text) + (2 << 20)
