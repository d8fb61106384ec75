"""The CSV writer: ``_format.format_e16`` against ``"%.16e" % x``, and
``cli.render_csv`` against the per-cell ``%`` loop it replaced. The
cases both formatters share are in formatter_cases.py."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from epgw import Phase  # noqa: E402
from epgw._format import format_e16  # noqa: E402
from epgw.cli import RunConfig, _table_rows, render_csv  # noqa: E402
from formatter_cases import (  # noqa: E402,F401  the shared cases, collected and run here on format_e16
    PERCENT_TIES,
    cells,
    fallback_counts,
    test_any_bit_pattern as test_any_bit_pattern_formats_as_percent,
    test_edges,
    test_every_power_of_ten_and_its_neighbours,
    test_seeded_bulk_draws,
)


@pytest.fixture(scope="module")
def formatter():
    return format_e16, "%.16e".__mod__


def test_ties_are_exact_ties():
    for x in PERCENT_TIES:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


@settings(max_examples=200)
@given(
    k=st.integers(min_value=2, max_value=25),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_exact_ties_round_half_to_even(k, fraction, sign):
    # x = m / 2^k with odd m and m 5^k of 18 digits; m < 2^53 keeps x exact
    lo, hi = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
    m = lo + int(fraction * (hi - lo)) | 1
    if m >= hi:
        m -= 2
    x = sign * m / 2**k
    digits = Decimal(x).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5
    assert cells(format_e16, [x]) == ["%.16e" % x]


def _percent_csv(columns, rows):
    """The per-cell loop render_csv replaced: a float as %.16e, any other cell as %s."""
    lines = [",".join(columns)]
    lines += [",".join(("%.16e" if isinstance(c, float) else "%s") % c for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _csv(*args):
    """render_csv's file as text: its chunks joined and decoded."""
    return b"".join(render_csv(*args)).decode()


def _table_text(text):
    """render_csv's text after its # header."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("# "))


def test_render_csv_matches_the_percent_loop():
    rng = np.random.default_rng(7)
    n = 5000
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = 0.0
    floats[::11] = -0.0
    table = {
        "x": floats,
        "peak": rng.integers(-(2**62), 2**62, n),
        "phase": np.array(list(Phase), dtype=object)[rng.integers(0, 3, n)],
        "y": rng.uniform(0.0, 1.0, n),
    }
    text = _csv(RunConfig(), "sweep-ncav", {"points": n}, list(table), _table_rows(table))
    rows = zip(table["x"].tolist(), table["peak"].tolist(), [p.value for p in table["phase"]], table["y"].tolist())
    assert _table_text(text) == _percent_csv(list(table), rows)


def test_phase_and_integer_cells_are_written_as_percent_s():
    table = {
        "peak": np.array([0, 1, -7, 2**63 - 1, -(2**63)]),
        "phase": np.array([*Phase, Phase.BROKEN, Phase.PT_SYMMETRIC], dtype=object),
    }
    text = _csv(RunConfig(), "simulate", {}, list(table), _table_rows(table))
    lines = [f"{peak},{phase.value}" for peak, phase in zip(table["peak"].tolist(), table["phase"])]
    assert _table_text(text) == "\n".join(["peak,phase", *lines]) + "\n"


def test_zero_row_table_writes_only_its_header_and_column_line():
    table = {"frequency_hz": np.array([]), "h_min": np.array([]), "peak": np.array([], dtype=int)}
    overlays = {"empty.csv": np.empty((0, 2))}
    text = _csv(RunConfig(), "sensitivity", {"points": 2}, list(table), _table_rows(table), overlays)
    header = [line for line in text.splitlines() if line.startswith("# ") and not line.startswith("# overlay")]
    assert header[0] == "# command = sensitivity" and header[-1] == "# flag.points = 2"
    assert text.endswith("frequency_hz,h_min,peak\n# overlay = empty.csv\nfrequency_hz,strain\n")


def test_render_csv_formats_in_blocks():
    # The cells are formatted a block of rows at a time, so the peak is the
    # file once (its blocks) and a small block's scratch, not a per-row cell
    # matrix and its intermediates for the whole table (about 650 bytes per
    # row on this table).
    n = 100_000
    rng = np.random.default_rng(3)
    table = {f"c{k}": rng.standard_normal(n) for k in range(5)}
    table["phase"] = np.array(list(Phase), dtype=object)[rng.integers(0, 3, n)]
    rows = _table_rows(table)
    tracemalloc.start()
    try:
        chunks = render_csv(RunConfig(), "sweep-ncav", {}, list(table), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = b"".join(chunks).decode()
    assert text.count("\n") == n + 1 + len(RunConfig().to_text().splitlines()) + 1
    assert peak <= len(text) + (2 << 20)


def test_the_array_path_writes_all_but_a_few_cells(monkeypatch):
    # 137 and 479 cells of 2^16 fall back today; a change that sends more there
    # keeps every byte and makes the writer slower
    uniform, spaced = fallback_counts(format_e16, monkeypatch)
    assert uniform <= 170
    assert spaced <= 600
