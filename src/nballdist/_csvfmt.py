"""The text of ``"%.17g" % v`` for whole float64 arrays, byte for byte.

Printing a double to 17 significant digits is the exact decimal conversion
that ``dtoa`` does with big integers, about 0.8 us per value in Python. Here
it is done for an array at once, by a fast path that proves its answer and a
fallback to ``"%.17g" % v`` itself wherever it cannot (the scheme of Steele &
White 1990 and of Ryu printf, Adams 2019):

* d = floor(log10 |v|) is estimated, and x = |v| 10^(16 - d) is formed as a
  double-double: 10^k is held as hi + lo, correctly rounded from exact
  Python integers, and |v| hi is split exactly by Dekker's two-product
  (numpy has no fused multiply-add).
* The 17-digit integer N = round(x) is exact unless x lies within
  ``_MARGIN`` of a half-integer (a near-tie), or d was off by one, which
  shows as N outside (10^16, 10^17).
* N becomes ASCII through a table of 4-digit groups. Each value gets a
  48-byte field in one fixed layout for every exponent: sign, the "0.000"
  prefix of fixed notation below 1, the 17 digits with a decimal point slot
  after each, and the exponent suffix. Unused slots and trailing zeros of
  the fraction hold zero bytes, and one pass over the buffer removes them.

Zero, subnormals, inf, nan, |v| outside [1e-280, 1e281), near-ties and
wrong estimates of d take the fallback, so every byte written is that of
``"%.17g" % v``.
"""
from __future__ import annotations

import numpy as np

# Decimal exponents d = floor(log10 |v|) on the fast path. Beyond them the
# low part of 10^(16 - d) would be subnormal, or Dekker's split overflow.
_D_MIN, _D_MAX = -280, 280

# With |x| < 2^60 (d off by at most one), hi + lo within 2^-106 relative of
# 10^k and every rounding at 2^-53, the computed x is within 1.5 * 2^-44 of
# the exact one; a fractional part farther than 2^-40 from 1/2 rounds the
# same way in both.
_MARGIN = 2.0 ** -40

_SPLIT = 134217729.0  # 2^27 + 1

# A value's field is six 8-byte words, so that it is assembled by whole-word
# table lookups: [sign, "0.000" prefix (5 bytes), D0, point slot], then
# [D, point slot] x 4 for each 4-digit group of D1..D16, then [exponent
# suffix "e+dd" / "e-ddd", padding, separator].
_WIDTH = 48

_TEN16, _TEN17 = 10 ** 16, 10 ** 17

# Values formatted per pass: each holds about 250 bytes per value in
# temporaries, and passes of 2^12 values are as fast as larger ones.
_CHUNK = 4096


def _words(rows) -> np.ndarray:
    """uint64 words whose bytes, in memory order, are the given byte rows
    (zero-padded to 8), so that the tables hold for either byte order."""
    buf = np.zeros((len(rows), 8), dtype=np.uint8)
    for i, row in enumerate(rows):
        for j, byte in row:
            buf[i, j] = byte
    return buf.view(np.uint64).ravel()


def _build_tables() -> dict:
    """Powers 10^k, k = 16 - d, as hi, lo and Dekker's split of hi; per
    exponent class the head and tail words and the digit the point follows;
    the digit, point, mask and trailing-zero words. About 4 ms."""
    hi, lo = [], []
    for k in range(16 - _D_MAX, 17 - _D_MIN):
        if k >= 0:
            t = 10 ** k
            h = float(t)
            hi.append(h)
            lo.append(float(t - int(h)))
        else:
            t = 10 ** -k
            h = 1 / t  # int / int is correctly rounded
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * t) / (den * t))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_h = c - (c - hi)

    heads, tails, cut = [], [], []
    for d in range(_D_MIN, _D_MAX + 1):
        if -4 <= d < 17:  # fixed notation, the point after digit d
            pre, suffix = ("0." + "0" * (-d - 1) if d < 0 else ""), ""
            cut.append(d)
        else:  # exponent notation, the point after the first digit
            pre, suffix = "", "e%+03d" % d
            cut.append(0)
        heads.append([(1 + j, ord(ch)) for j, ch in enumerate(pre)])
        tails.append([(j, ord(ch)) for j, ch in enumerate(suffix)])

    g = np.arange(10000)
    group = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    quad = np.zeros((10000, 8), dtype=np.uint8)
    quad[:, 0::2] = group + ord("0")
    trailing = np.where(g == 0, 4, 0)
    for p in (10, 100, 1000):
        trailing = np.where((g % p == 0) & (g > 0), trailing + 1, trailing)
    return {
        "hi": hi, "lo": lo, "hi_h": hi_h, "hi_l": hi - hi_h,
        "head": _words(heads), "tail": _words(tails), "cut": np.array(cut),
        "lead": _words([[(6, ord("0") + k)] for k in range(10)]),
        "sign": _words([[(0, ord("-"))]])[0],
        "point": _words([[(2 * j + 1, ord("."))] for j in range(4)]),
        "keep": _words([[(j, 255) for j in range(2 * k)] for k in range(5)]),
        "quad": quad.view(np.uint64).ravel(),
        "trailing": trailing.astype(np.uint8),
    }


# Built at import: built on first use, in the middle of a run, their
# short-lived Python objects raised the peak resident memory of a compare
# workload by 1.5 MB; built first, by nothing measurable.
_TABLES = _build_tables()


def _decimal(values: np.ndarray) -> tuple:
    """N = round(|v| 10^(16 - d)) and d = floor(log10 |v|) for each value,
    with the lanes where the fast path proves them; N is 10^16 + 1 and d
    is 0 elsewhere."""
    t = _TABLES
    a = np.abs(values)
    ok = np.isfinite(a) & (a > 0.0)
    d = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.int64)
    ok &= (d >= _D_MIN) & (d <= _D_MAX)
    a[~ok] = 1.0
    d[~ok] = 0

    # x = a 10^(16 - d) = p1 + r, p1 an integer (x >= 2^53 wherever d is right)
    k = _D_MAX - d
    hi, hi_h, hi_l = t["hi"][k], t["hi_h"][k], t["hi_l"][k]
    p1 = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    r = ((a_h * hi_h - p1) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * t["lo"][k]
    fl = np.floor(r)
    r -= fl  # the fractional part
    ok &= np.abs(r - 0.5) > _MARGIN
    N = p1.astype(np.int64) + fl.astype(np.int64) + (r > 0.5)
    ok &= (N > _TEN16) & (N < _TEN17)
    N[~ok] = _TEN16 + 1
    return N, d, ok


def _fields(values: np.ndarray) -> np.ndarray:
    """(m, 48) uint8 fields of the 1-D float64 ``values``, separator byte
    left zero; the nonzero bytes of row i spell ``"%.17g" % values[i]``."""
    t = _TABLES
    m = len(values)
    N, d, ok = _decimal(values)

    # the 17 digits: N = D0 10^16 + groups g1..g4 of four digits
    top, low = np.divmod(N, 10 ** 8)
    lead, (g1, g2) = top // 10 ** 8, np.divmod(top % 10 ** 8, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    trailing, z = t["trailing"][g4], g4 == 0
    for g in (g3, g2, g1):
        trailing = trailing + np.where(z, t["trailing"][g], 0)
        z &= g == 0

    cls = d - _D_MIN
    cut = t["cut"][cls]
    last = 16 - trailing  # the last nonzero digit
    # digits after max(last, cut) are trailing zeros of the fraction
    kept = np.maximum(last, cut) + 1
    words = np.empty((m, 6), dtype=np.uint64)
    words[:, 0] = t["head"][cls] | t["lead"][lead] | np.where(np.signbit(values), t["sign"], 0)
    for i, g in enumerate((g1, g2, g3, g4)):
        words[:, i + 1] = t["quad"][g] & t["keep"][np.clip(kept - (4 * i + 1), 0, 4)]
    words[:, 5] = t["tail"][cls]
    # the point after digit cut, unless no fraction digit is left; below 1
    # the prefix holds it
    rows = np.flatnonzero((cut >= 0) & (cut < last))
    at = cut[rows] + 3  # digit j >= 1 sits in word (j + 3) // 4, slot (j + 3) % 4
    flat = words.ravel()
    flat[6 * rows + at // 4] |= np.where(at < 4, t["point"][3], t["point"][at % 4])

    field = words.view(np.uint8)
    for i in np.flatnonzero(~ok).tolist():
        text = ("%.17g" % values[i]).encode()
        field[i] = 0
        field[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return field


def csv_rows(columns):
    """Lines of comma-separated ``%.17g`` values, row i holding element i
    of each column (1-D arrays of one length), yielded as one string per
    block of about ``_CHUNK`` values."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    step = max(1, _CHUNK // len(columns))
    for lo in range(0, len(columns[0]), step):
        part = np.column_stack([c[lo:lo + step] for c in columns])
        field = _fields(part.ravel()).reshape(*part.shape, _WIDTH)
        field[:, :-1, -1] = ord(",")
        field[:, -1, -1] = ord("\n")
        yield field.tobytes().translate(None, b"\0").decode("ascii")
