"""``"%.16e" % x`` for every cell of a float64 array, byte for byte.

``format_e16`` writes each cell into a 28-byte slot of seven
little-endian 32-bit words, with NUL bytes where the text has none: an
optional ``-``, one digit and ``.`` in the first word, 16 digits in the
next four, from a table of 4-digit words, and ``e`` with a signed
exponent of at least two digits in the last two.

The 17 significant digits are the integer D = round(|x| 10^(16-e)), where
e makes the truncated value lie in [10^16, 10^17); a D that rounds up to
10^17 is written as 10^16 at e + 1. |x| 10^(16-e) is formed as a
double-double: Dekker's TwoProduct (Numer. Math. 18, 224 (1971)) of |x|
and the double nearest 10^(16-e), plus |x| times that double's error.
The sum is accurate to about 1e-14, far inside the 1e-3 margin kept
around a half. ``%`` itself, CPython's correctly rounded conversion,
writes three kinds of cell: one whose fractional part lies within 1e-3
of 0.5 (exact ties among them), one that is not finite, and one outside
[1e-280, 1e290], where a product could leave the normal range.
"""

from __future__ import annotations

import numpy as np

WIDTH = 28  # bytes per cell; the longest "%.16e" text, -1.2345678901234567e-308, has 24

_MIN_ABS, _MAX_ABS = 1e-280, 1e290  # the magnitudes the array path formats
_E_MIN = -290  # exponent table offset; e stays within [-282, 291]
_K_MIN = -300  # power table offset; k = 16 - e stays within [-275, 298]
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


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


def format_e16(x: np.ndarray) -> np.ndarray:
    """The (len(x), WIDTH) uint8 matrix whose row i is ``"%.16e" % x[i]``, NUL-padded."""
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
    digits = t + (f > 0.5)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    e += carry
    zero = x == 0.0
    digits[zero] = 0
    e[zero] = 0

    words = np.empty((len(x), WIDTH // 4), "<u4")
    high, low = np.divmod(digits, 10**8)  # the first 9 digits and the last 8
    lead, high = np.divmod(high.astype(np.int32), 10**8)
    low = low.astype(np.int32)
    words[:, 0] = np.signbit(x) * ord("-") + (lead + ord("0")) * 0x100 + ord(".") * 0x10000
    words[:, 1] = _DIGITS4[high // 10**4]
    words[:, 2] = _DIGITS4[high % 10**4]
    words[:, 3] = _DIGITS4[low // 10**4]
    words[:, 4] = _DIGITS4[low % 10**4]
    words[:, 5:] = _EXPONENT[e - _E_MIN].view("<u4").reshape(-1, 2)

    fallback = np.flatnonzero(~inside & ~zero | (np.abs(f - 0.5) < 1e-3))
    if len(fallback):
        text = ["%.16e" % value for value in x[fallback].tolist()]
        words[fallback] = np.array(text, f"S{WIDTH}").view("<u4").reshape(-1, WIDTH // 4)
    return words.view(np.uint8)
