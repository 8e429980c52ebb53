"""Truncated power-series arithmetic for Taylor-coefficient extraction, and
the evaluation of printed polynomial PDFs in s near s = 2R.

Coefficient arrays are plain float64 numpy arrays indexed by power. All
series routines operate on series truncated at a fixed order N, which is
exact for coefficient extraction up to that order.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def reexpand(table: dict, at) -> np.ndarray:
    """Coefficients d_j, lowest power first, of the polynomial
    sum_k c_k t^k (``table`` maps k to a Fraction c_k) in u = at - t,
    summed exactly before rounding to floats."""
    out = [Fraction(0)] * (max(table) + 1)
    for k, c in table.items():
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * at ** (k - j) * (-1) ** j
    return np.array([float(d) for d in out])


def poly_eval(table: dict, s, R: float):
    """sum_k c_k s^k / R^(k+1), ``table`` mapping k to c_k, summed in s/R,
    so that no power of R leaves the double range."""
    t = s / R
    # np.power, not **: a 0-d s makes t a numpy scalar, whose ** rounds
    # differently from an array's
    return sum(float(c) * np.power(t, k) for k, c in table.items()) / R


def eval_split_at_2r(table: dict, at_2r: np.ndarray, s, R: float):
    """``poly_eval`` on s in [0, 2R]: in powers of s up to 1.4R,
    and above it in powers of 2R - s (``at_2r = reexpand(table, 2)``),
    where the powers of s cancel but those of 2R - s keep full relative
    accuracy."""
    near_2r = np.polynomial.polynomial.polyval((2.0 * R - s) / R, at_2r) / R
    return np.where(s > 1.4 * R, near_2r, poly_eval(table, s, R))


def series_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def series_pow(a: np.ndarray, p: float, order: int) -> np.ndarray:
    """A(x)^p for a series with a[0] > 0, by the Euler/Miller recurrence:
    k a0 b_k = sum_{j=1..k} ((p+1) j - k) a_j b_{k-j}."""
    if a[0] <= 0.0:
        raise ValueError("series_pow needs a positive constant term")
    b = np.zeros(order + 1)
    b[0] = a[0] ** p
    top = len(a) - 1
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(1, min(k, top) + 1):
            acc += ((p + 1.0) * j - k) * a[j] * b[k - j]
        b[k] = acc / (k * a[0])
    return b


def series_integrate(a: np.ndarray, order: int) -> np.ndarray:
    """Term-by-term antiderivative with zero constant term."""
    out = np.zeros(order + 1)
    m = min(order, len(a))
    out[1 : m + 1] = a[:m] / np.arange(1, m + 1)
    return out


def arcsin_series(order: int) -> np.ndarray:
    """Maclaurin coefficients of arcsin(x): x + x^3/6 + 3x^5/40 + ..."""
    c = np.zeros(order + 1)
    term = 1.0
    k = 0
    while 2 * k + 1 <= order:
        c[2 * k + 1] = term / (2 * k + 1)
        term *= (2 * k + 1) / (2 * k + 2)
        k += 1
    return c


def inv_sqrt_one_minus_sq(order: int) -> np.ndarray:
    """Coefficients of 1/sqrt(1 - x^2)."""
    base = np.zeros(order + 1)
    base[0] = 1.0
    if order >= 2:
        base[2] = -1.0
    return series_pow(base, -0.5, order)


def overlap_generating_coeffs(order: int, s_over_r: float) -> np.ndarray:
    """Taylor coefficients in u of
        (1/sqrt(1-u^2)) [asin(u) - asin((u - a)/(1 - a u))],
    where a = sqrt(1 - (s/2R)^2). Coefficient k equals Q_k(s)/R^k.

    The difference of arcsines is built from its derivative, which the
    addition structure of the inner Moebius map reduces to
        [1 - sqrt(1-a^2)/(1-a u)] / sqrt(1-u^2),
    so every intermediate series has uniformly bounded coefficients and the
    extraction stays stable through order 60.
    """
    t = 0.5 * s_over_r
    if not (0.0 <= t <= 1.0):
        raise ValueError("s must lie in [0, 2R]")
    a2 = max(1.0 - t * t, 0.0)
    a = math.sqrt(a2)
    invsq = inv_sqrt_one_minus_sq(order)
    geo = a ** np.arange(order + 1)  # 1/(1 - a u)
    d = series_mul(geo, invsq, order)
    g = arcsin_series(order) - t * series_integrate(d, order)
    g[0] += math.asin(min(a, 1.0))
    return series_mul(invsq, g, order)
