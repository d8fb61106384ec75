"""The overlay reader's two paths: a file in the plain layout is parsed
from its bytes, every other file through the csv module. Both must give
the same table, or the same error on the same line."""

import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from epgw import ConfigParseError, read_overlay_csv  # noqa: E402

HEADER = "frequency_hz,strain\n"


def _dot_form(x):
    # repr with the zero before or after the point left out: .5, -.5, 5.
    text = repr(x)
    if re.match(r"-?0\.", text):
        return text.replace("0.", ".", 1)
    return re.sub(r"\.0$", ".", text)


FORMS = {
    "repr": repr,
    "e16": lambda x: "%.16e" % x,
    "g17": lambda x: "%.17g" % x,
    "upper": lambda x: ("%.16e" % x).upper(),
    "plus": lambda x: repr(x) if repr(x).startswith("-") else "+" + repr(x),
    "dot": _dot_form,
}
ZERO_OR_NORMAL = st.sampled_from([0.0, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False
)
REFUSED = st.sampled_from([float("nan"), float("inf"), float("-inf"), 5e-324, -1e-310, 2.2250738585072e-308])


def _read(path):
    """read_overlay_csv's table, or its error as (line, message)."""
    try:
        return read_overlay_csv(path)
    except ConfigParseError as exc:
        return exc.line, str(exc)


@settings(max_examples=300)
@given(data=st.data())
def test_plain_and_crlf_files_read_alike(data):
    # The same cells with \r\n line ends, which only the csv path reads:
    # the tables are bit-identical and the drawn table itself, and a
    # refused cell gives one error on one line from both files.
    table = np.array(data.draw(st.lists(st.tuples(ZERO_OR_NORMAL, ZERO_OR_NORMAL), max_size=40)), dtype=float)
    table = table.reshape(-1, 2)
    refused = len(table) > 0 and data.draw(st.booleans())
    if refused:
        row = data.draw(st.integers(0, len(table) - 1))
        table[row, data.draw(st.integers(0, 1))] = data.draw(REFUSED)
    cells = [[FORMS[data.draw(st.sampled_from(sorted(FORMS)))](float(x)) for x in row] for row in table]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for end in ("\n", "\r\n"):
            path = os.path.join(tmp, "curve.csv")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(HEADER.replace("\n", end) + "".join(",".join(row) + end for row in cells))
            results.append(_read(path))
    plain, crlf = results
    if refused:
        line, text = plain
        assert plain == crlf
        assert (line, text) == (row + 2, f"line {row + 2}: cell is not 0 or a normal double: {','.join(cells[row])!r}")
    else:
        assert plain.dtype == crlf.dtype == np.float64 and plain.shape == crlf.shape == table.shape
        assert plain.tobytes() == crlf.tobytes() == table.tobytes()


def test_plain_file_does_not_reach_the_csv_module(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr("epgw.sensitivity.csv.reader", refuse)
    rows = [(1e-3, 4.5e-25), (2.0, 1.25e-22), (0.0, -0.0)]
    path = tmp_path / "curve.csv"
    path.write_text(HEADER + "".join(f"{f!r},{h!r}\n" for f, h in rows))
    assert read_overlay_csv(str(path)).tolist() == [list(row) for row in rows]
    # a header that matches only once stripped and case-folded is not plain
    path.write_text("Frequency_Hz , STRAIN\n1.0,2.0\n")
    with pytest.raises(AssertionError, match="csv.reader called"):
        read_overlay_csv(str(path))


def test_plain_overlay_peak_memory_per_row(tmp_path):
    # The plain path holds the bytes, their cells and the array: about
    # 254 B a row on this table, against 480 B a row for the csv module's
    # rows and the float tuples.
    n = 20_000
    rng = np.random.default_rng(91)
    rows = zip(10.0 ** rng.uniform(-7.0, 3.0, n), 10.0 ** rng.uniform(-24.0, -18.0, n))
    path = tmp_path / "curve.csv"
    path.write_text(HEADER + "".join(f"{float(f)!r},{float(h)!r}\n" for f, h in rows))
    tracemalloc.start()
    try:
        table = read_overlay_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (n, 2)
    assert peak <= 350 * n
