"""Two texts of each float64 cell of an array, byte for byte: ``"%.16e" % x``
(``format_e16``, the CSV cell) and ``repr(x)`` (``format_repr``, the JSON
cell), as uint8 matrices, one row per cell, NUL where the text has no byte.

Both start from t + f = |x| 10^(16-e), t the integer and f the fraction,
with e such that t lies in [10^16, 10^17). The product is a double-double:
Dekker's TwoProduct (Numer. Math. 18, 224 (1971)) of |x| and the double
nearest 10^(16-e), plus |x| times that double's error, accurate to about
1e-14 in units of the 17th digit, far inside the 1e-3 margin kept around
each decision below.

``format_e16`` writes round(t + f), carried to 10^16 at e + 1 from 10^17,
in seven little-endian 32-bit words: an optional ``-``, a digit and ``.``,
16 digits from a table of 4-digit words, and ``e`` with a signed exponent of
at least two digits.

``format_repr`` writes the shortest digits that read back as x (Steele &
White, PLDI 1990), as repr does: 15, 16 or 17, the fewest for which the
decimal just below or just above x lies within half a gap of x (the nearer
where both do; below a power of two the gap is half as wide), trailing
zeros stripped, laid out as ``1e-05`` or ``1.5e+16`` when e is below -4 or
at least 16, else as ``0.00015`` or ``1500.0``.

CPython's correctly rounded conversion writes each cell the array path
cannot settle: one within the margin of a rounding tie or of a gap's edge,
one that is not finite, and one outside [1e-280, 1e290], where a product
could leave the normal range.
"""

from __future__ import annotations

import numpy as np

WIDTH = 28  # bytes per cell; the longest "%.16e" text, -1.2345678901234567e-308, has 24
REPR_WIDTH = 32  # bytes per repr cell, four 64-bit words

_MIN_ABS, _MAX_ABS = 1e-280, 1e290  # the magnitudes the array path formats
_E_MIN = -290  # exponent table offset; e stays within [-282, 291]
_K_MIN = -300  # power table offset; k = 16 - e stays within [-275, 298]
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_MARGIN = 1e-3  # how near a tie or a gap edge, in units of the 17th digit, sends a cell to CPython


def _split(a):
    """Dekker's split of a into a 26-bit high part and the rest, exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _powers():
    """(hi, hi's split, lo) for 10^k, k from -300 to 300: hi the nearest
    double, hi + lo = 10^k to about 2^-106 relative. Integer arithmetic
    only, so each value is exact before its one rounding."""
    hi, lo = [], []
    ten = 1  # 10^n
    for n in range(301):
        h = float(ten)
        hi.append(h)
        lo.append(float(ten - int(h)))
        if n:  # 10^-n - m/d = (d - m 10^n) / (10^n d)
            h = 1 / ten
            m, d = h.as_integer_ratio()
            hi.insert(0, h)
            lo.insert(0, (d - m * ten) / (ten * d))
        ten *= 10
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW_HI, _POW_HI_H, _POW_HI_L, _POW_LO = _powers()

# "0000".."9999" as 32-bit words, and "e-290".."e+300" NUL-padded to 64 bits
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
for _place, _shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
    _DIGITS4[..., _place] = np.arange(ord("0"), ord("9") + 1).reshape(_shape)
_DIGITS4 = _DIGITS4.view("<u4").ravel()
_EXPONENT = np.array([b"e%+03d" % e for e in range(_E_MIN, 301)], "S8").view("<u8")
# what goes before a repr's digits, by 5 * sign + (-e for e in -4..-1, else 0)
_PREFIX = np.array([s + z for s in (b"", b"-") for z in (b"", b"0.", b"0.0", b"0.00", b"0.000")], "S8").view("<u8")
# By k, the digits kept or the place of the point among the 16 after the
# first: _KEEP[w, k] keeps the bytes of 64-bit word w below k, _POINT[w, k]
# is "." at k, and _ABOVE[w, 17 p + k] keeps the bytes above the point p
# and up to the k digits kept, moved up one byte; _NO_POINT is past the end.
_NO_POINT = 24
_KEEP = np.array([[2 ** (8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(26)] for w in range(3)], np.uint64)
_POINT = np.array([[ord(".") << 8 * (k - 8 * w) if 0 <= k - 8 * w < 8 else 0 for k in range(25)] for w in (0, 1)], "u8")
_ABOVE = (_KEEP[:, None, 1:18] & ~_KEEP[:, 1:, None]).reshape(3, -1)


def _scaled(a, e):
    """(t, f), elementwise: the integer and fractional parts of
    a 10^(16-e), exact where that is at least 2^53, so that the nearest
    double to it is an integer; t < 10^16 below."""
    k = 16 - e - _K_MIN
    b, bh, bl = _POW_HI[k], _POW_HI_H[k], _POW_HI_L[k]
    p = a * b
    ah, al = _split(a)
    r = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * _POW_LO[k]  # a b - p, exactly, then a lo
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _decimal(x):
    """(x, a, e, t, f, zero, outside): x as float64, and t + f = a 10^(16-e)
    with t in [10^16, 10^17), where a = |x| for the cells the array path
    formats and a = 1 for the rest, a zero or a cell outside the range."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    inside = (a >= _MIN_ABS) & (a <= _MAX_ABS)
    a = np.where(inside, a, 1.0)
    # e is the exponent of a's truncated 17-digit value: log10 can land one
    # off next to a power of ten, where the truncation decides
    e = np.floor(np.log10(a)).astype(np.intp)
    t, f = _scaled(a, e)
    step = (t >= 10**17).astype(np.intp) - (t < 10**16)
    moved = np.flatnonzero(step)
    if len(moved):
        e[moved] += step[moved]
        t[moved], f[moved] = _scaled(a[moved], e[moved])
    zero = x == 0.0
    return x, a, e, t, f, zero, ~inside & ~zero


def _digit_words(digits, words):
    """Write a 17-digit integer's last 16 digits into words, four 32-bit
    words of text; return its first digit."""
    high, low = np.divmod(digits, 10**8)  # the first 9 digits and the last 8
    lead, high = np.divmod(high.astype(np.int32), 10**8)
    for k, part in enumerate(np.divmod(high, 10**4) + np.divmod(low.astype(np.int32), 10**4)):
        words[:, k] = _DIGITS4[part]
    return lead


def _fall_back(cells, x, fallback, text):
    """Write text(value) into the cells of x at the indices in fallback."""
    if len(fallback):
        width = cells.shape[1]
        texts = [text(value) for value in x[fallback].tolist()]
        cells[fallback] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


def format_e16(x: np.ndarray) -> np.ndarray:
    """The (len(x), WIDTH) uint8 matrix whose row i is ``"%.16e" % x[i]``, NUL-padded."""
    x, _, e, t, f, zero, outside = _decimal(x)
    digits = t + (f > 0.5)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    e += carry
    digits[zero] = 0
    e[zero] = 0

    words = np.empty((len(x), WIDTH // 4), "<u4")
    lead = _digit_words(digits, words[:, 1:5])
    words[:, 0] = np.signbit(x) * ord("-") + (lead + ord("0")) * 0x100 + ord(".") * 0x10000
    words[:, 5:] = _EXPONENT[e - _E_MIN].view("<u4").reshape(-1, 2)
    return _fall_back(words.view(np.uint8), x, np.flatnonzero(outside | (np.abs(f - 0.5) < _MARGIN)), "%.16e".__mod__)


def format_repr(x: np.ndarray) -> np.ndarray:
    """The (len(x), REPR_WIDTH) uint8 matrix whose row i is ``repr(x[i])``,
    NUL where the text has no byte."""
    x, a, e, t, f, zero, outside = _decimal(x)
    # half the gap up to the next double, 2^-53 times a's power of two, and
    # down to the one before, half that at a power of two; in units of the 17th digit
    bits = a.view(np.int64)
    half_up = ((bits & 0x7FF << 52) - (53 << 52)).view(np.float64) * _POW_HI[16 - e - _K_MIN]
    half_down = np.where(bits & (2**52 - 1) == 0, 0.5 * half_up, half_up)
    digits = t + (f > 0.5)
    unsure = np.abs(f - 0.5) < _MARGIN
    last = t % 100
    for q, r in ((10, last % 10), (100, last)):  # 16 digits, then 15, each replacing the longer where it reads back
        below = r + f  # the distance down to t - r, and up to t - r + q
        above = q - below
        ok_below, ok_above = below < half_down, above < half_up
        up = ok_above & ~(ok_below & (below < above))  # the nearer where both read back
        digits = np.where(ok_below | ok_above, t - r + q * up, digits)
        unsure |= (np.abs(below - half_down) < _MARGIN) | (np.abs(above - half_up) < _MARGIN)
        unsure |= np.abs(below - 0.5 * q) < _MARGIN
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry

    # word 0: the sign and "0.000" in bytes 0-5 and the first digit in byte
    # 7; words 1-3: the other 16 digits, those above the point moved up a
    # byte, then the exponent; each word is written before those it reads
    cells = np.zeros((len(x), REPR_WIDTH // 8), "<u8")
    cells[:, 0] = (_digit_words(digits, cells[:, 1:3].view("<u4")) + ord("0")).astype("u8") << 56
    count = 17 - np.argmax(cells.view(np.uint8)[:, 23:6:-1] != ord("0"), axis=1)  # significant digits
    fixed = (e >= -4) & (e < 16)
    whole = fixed & (e >= 0)  # the digits up to the point are kept, zeros included
    keep = np.where(whole, np.maximum(count, e + 1), count) - 1  # of the 16
    point = np.where(whole, e, np.where(fixed | (count == 1), _NO_POINT, 0))  # among the 16
    low, high, dot = _KEEP.take(np.minimum(point, keep), 1), _ABOVE.take(17 * point + keep, 1), _POINT.take(point, 1)
    r0, r1 = cells[:, 1], cells[:, 2]
    suffix = np.where(fixed, (whole & (count <= e + 1)) * np.uint64(ord("0")), _EXPONENT[e - _E_MIN])
    cells[:, 3] = r1 >> 56 & high[2] | suffix << 8
    cells[:, 2] = r1 & low[1] | (r1 << 8 | r0 >> 56) & high[1] | dot[1]
    cells[:, 1] = r0 & low[0] | r0 << 8 & high[0] | dot[0]
    cells[:, 0] |= _PREFIX[5 * np.signbit(x) + np.where(fixed & (e < 0), -e, 0)]
    cells = cells.view(np.uint8)
    cells[zero, 7] = ord("0")  # a zero was written as 1.0
    return _fall_back(cells, x, np.flatnonzero(outside | (unsure & ~zero)), repr)
