"""The array %.17g kernel writes exactly the bytes of "%.17g" % v."""
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nballdist import _csvfmt, cli


def assert_exact(values):
    values = np.asarray(values, dtype=float)
    got = "".join(_csvfmt.csv_rows([values]))
    want = "%.17g\n" * len(values) % tuple(values.tolist())
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split("\n"), want.split("\n"))
               if g != w]
        raise AssertionError(bad[:5])


def test_a_million_random_bit_patterns():
    # uniform 64-bit patterns: every exponent about 500 times, both signs,
    # subnormals and nan; the two infinities are added
    rng = np.random.default_rng(20261019)
    for _ in range(16):
        values = rng.integers(0, 2 ** 64, size=62_500, dtype=np.uint64).view(np.float64)
        assert_exact(values)
    assert_exact([math.inf, -math.inf, math.nan, -math.nan])


def _neighbours(x: float) -> list:
    return [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, math.inf))]


def test_edge_values():
    tiny, huge = 5e-324, np.finfo(float).max
    values = [0.0, -0.0, tiny, -tiny, huge, -huge, 2.2250738585072014e-308,
              1e16, 1e17, 9.999999999999999e16, 99999999999999984.0]
    for k in range(-323, 309):
        values += _neighbours(float(f"1e{k}"))
    # the switches to exponent notation below 1e-4 and from 1e17
    for x in (1e-4, 1e-5, 1e17, 9.9999999999999995e-5, 1e16, 1.0, 10.0):
        values += _neighbours(x)
    # exact ties at 17 digits (round half to even) and half-integers above 2^53
    values += [1000000000000000.25, 1000000000000000.75, 1000000000000001.25,
               2.0 ** 53 + 1.0, 2.0 ** 53 + 2.0]
    rng = np.random.default_rng(7)
    halves = rng.integers(2 ** 53, 10 ** 17, size=2000).astype(float) + 0.5
    values += [float(v) * s for v in halves for s in (1.0, 1e-20, 1e-100, 1e100)]
    values += [-v for v in values]
    assert_exact(values)


def test_decimal_exponent_classes():
    # every exponent class, on digits with and without trailing zeros
    mantissas = [1.0, 1.5, 2.0, 1.25, 9.999, 1.2345678901234567, 3.0000000000000004]
    values = [m * 10.0 ** k for m in mantissas for k in range(-300, 300)]
    assert_exact(values)
    assert_exact(-np.array(values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_matches_percent_format(values):
    assert_exact(values)


def test_rows_match_the_row_by_row_writer():
    grid = np.linspace(0.0, 2.0, 2 * cli._PDF_BLOCK + 3)
    counts = np.arange(len(grid), dtype=np.int64) * 1000
    tail = -np.exp(-grid * 40.0)  # down to -1.8e-35, in exponent notation
    out = io.StringIO()
    cli._write_rows(out, grid, counts, tail)
    want = "".join(f"{s:.17g},{int(c)},{v:.17g}\n"
                   for s, c, v in zip(grid.tolist(), counts.tolist(), tail.tolist()))
    assert out.getvalue() == want
