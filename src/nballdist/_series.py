"""Exact piecewise polynomials, the one float evaluator of every polynomial
in s with rational coefficients that a PDF is or has as a factor, and
truncated power-series arithmetic for Taylor-coefficient extraction.

Coefficient arrays of the series routines are plain float64 numpy arrays
indexed by power, truncated at a fixed order N, which is exact for
coefficient extraction up to that order.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import DomainError, PrecisionError


def _expansion(coeffs, end: float, unit: float, width: int) -> list:
    """Floats e_j, j < width, with sum_k c_k s^k = sum_j e_j x^j / unit,
    x = (s - end)/unit, re-expanded from the Fractions c_k exactly before
    rounding."""
    at, u = Fraction(end), Fraction(unit)
    return [float(u ** (j + 1) * sum(c * math.comb(k, j) * at ** (k - j)
                                     for k, c in enumerate(coeffs) if k >= j))
            for j in range(width)]


def _crossing(a: float, b: float, unit: float, below: list, above: list) -> float:
    """The s in [a, b] where Horner's rounding bounds for the sums about a
    and about b, sum_j |e_j| |x|^j (Higham 2002, "Accuracy and Stability of
    Numerical Algorithms", section 5.1), meet, to 1/1024 of b - a. The
    bound about a rises with s and the one about b falls, so they meet once."""
    s = np.linspace(a, b, 1025)
    polyval = np.polynomial.polynomial.polyval
    lower = polyval((s - a) / unit, np.abs(below)) <= polyval((b - s) / unit, np.abs(above))
    return s[max(np.count_nonzero(lower) - 1, 0)]


def _exact_at(coeffs, s: Fraction) -> Fraction:
    return sum((c * s ** k for k, c in enumerate(coeffs)), Fraction(0))


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Exact piecewise polynomial on [0, 2R]: ``pieces[i]`` holds Fraction
    coefficients (index = power of s) valid on [breakpoints[i], breakpoints[i+1]].

    Called on floats, a piece on [a, b] is summed by Horner's rule in powers
    of (s - a)/R up to a split s* (``_crossing``) and of (s - b)/R above it,
    from its exact re-expansions about the float ends a and b, R half the
    largest breakpoint: near 2R, where the powers of s cancel, those of
    2R - s keep full relative accuracy, and in units of R no coefficient
    leaves the double range."""
    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")

    def piece_index(self, s: float) -> int:
        edges = self._float_pieces[0]
        if not (edges[0] <= s <= edges[-1]):
            raise DomainError(f"s={s!r} outside [{edges[0]}, {edges[-1]}]")
        return int(np.searchsorted(edges[1:-1], s, side="right"))

    @cached_property
    def _float_pieces(self) -> tuple:
        """(edges, unit, splits, ends, columns), built once. Row 2i is piece i
        about its lower end and row 2i + 1 about its upper end: ``ends`` holds
        each row's end, and ``columns[j]`` each row's e_j (zero-padded).
        ``splits`` holds each piece's s*."""
        edges = [float(b) for b in self.breakpoints]
        unit = float(max(abs(Fraction(b)) for b in self.breakpoints) / 2) or 1.0
        width = max(len(p) for p in self.pieces)
        rows, splits = [], []
        for coeffs, a, b in zip(self.pieces, edges, edges[1:]):
            below, above = (_expansion(coeffs, end, unit, width) for end in (a, b))
            rows += [below, above]
            splits.append(_crossing(a, b, unit, below, above))
        edges = np.array(edges)
        return edges, unit, np.array(splits), np.repeat(edges, 2)[1:-1], np.array(rows).T.copy()

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        flat = s_arr.reshape(-1)
        edges, unit, splits, ends, columns = self._float_pieces
        idx = np.searchsorted(edges[1:-1], flat, side="right")
        row = 2 * idx + (flat > splits[idx])
        x = (flat - ends[row]) / unit
        acc = columns[-1].take(row)
        for col in columns[-2::-1]:
            acc *= x
            acc += col.take(row)
        out = (acc / unit).reshape(s_arr.shape)
        return out if out.ndim else float(out)

    def evaluate_exact(self, s) -> Fraction:
        s = Fraction(s)
        return _exact_at(self.pieces[self.piece_index(float(s))], s)

    def integral(self) -> Fraction:
        """Exact integral over the full breakpoint range."""
        total = Fraction(0)
        for lo, hi, coeffs in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            primitive = [0] + [c / (k + 1) for k, c in enumerate(coeffs)]
            total += _exact_at(primitive, Fraction(hi)) - _exact_at(primitive, Fraction(lo))
        return total

    def continuity_jumps(self) -> list:
        """Value jumps at the interior breakpoints (exact)."""
        return [_exact_at(right, Fraction(b)) - _exact_at(left, Fraction(b))
                for b, left, right in zip(self.breakpoints[1:-1], self.pieces, self.pieces[1:])]

    def to_json_dict(self, width: int = 10) -> dict:
        """Breakpoints and absolute coefficients as floats; PrecisionError where
        a nonzero coefficient is not a normal double (its powers of R at extreme R)."""
        if any(c and not 2.0 ** -1022 <= abs(c) <= sys.float_info.max
               for coeffs in self.pieces for c in coeffs):
            raise PrecisionError("a coefficient of the exact polynomial is not a normal double")
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "pieces": [[float(c) for c in coeffs] + [0.0] * (width - len(coeffs))
                       for coeffs in self.pieces],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def ball_polynomial(table: dict, radius: float) -> PiecewisePolynomial:
    """sum_k c_k s^k / R^(k+1) on [0, 2R] as one exact piece, ``table``
    mapping k to the Fraction c_k of a table printed for R = 1."""
    R = Fraction(radius)
    coeffs = tuple(table.get(k, 0) / R ** (k + 1) for k in range(max(table) + 1))
    return PiecewisePolynomial((Fraction(0), 2 * R), (coeffs,))


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
