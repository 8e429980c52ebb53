"""Independently tabulated closed forms used as oracles by the test suite.

Everything here is written down directly from the published closed-form
expressions (uniform-ball PDFs for n = 2 and 4, the equal-thickness
2/3/4-shell region tables, and the hyperspherical cap volume behind the
shell PDF in any dimension), evaluated in exact rational arithmetic where
the comparison demands it. The shell PDF also has a second, independent
oracle: nested adaptive quadrature of the overlap integral, and so do
smooth radial profiles, whose slice integral the package takes in closed
form. The polynomial tables (odd-n uniform ball, rho ~ r^2, the parabolic
family, x^2 y^2 z^2) keep their former float evaluator, split at 1.4R.
The random number stream has a one-shot oracle: ``OneShotStream`` draws
words, uniforms and normals in single whole-array passes, the form the
blocked ``CounterStream`` must reproduce bit for bit. On top of it, the direct
samplers (uniform ball, Gaussian, shells) are written as whole-batch draws,
the form every pair window of ``sample_density`` must reproduce bit for bit.
The master-formula quadrature has a one-rotation-at-a-time oracle, the loop
that the blocks of whole rotations must reproduce bit for bit.

Two coefficients of the 4-shell table are known to be misprinted in
circulating tabulations; both misprints break the continuity of the PDF at
the adjacent region boundaries, while the constructive ball-difference
assembly is continuous by construction:

  * region 3, s^5:  768 (2 r1 r3 - r2^2 - 2 r1 r4 + 2 r2 r4)
                    should read  768 (2 r1 r2 - r2^2 - 2 r1 r4 + 2 r2 r4)
  * region 7, s^5:  768 (2 r2 - r4) r4   should read   768 (2 r3 - r4) r4

The tables below carry both variants so tests can verify the assembly against
the corrected forms AND confirm that the misprinted ones genuinely disagree.
"""
from bisect import bisect_left
from fractions import Fraction as F

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import betaincc

from nballdist import _rng
from nballdist.arbitrary import _angular_rule, _cap_rule
from nballdist.core import density_value


def p2_closed(s: float, R: float = 1.0) -> float:
    """Uniform-disc pair-distance density, trigonometric closed form."""
    x = s / (2.0 * R)
    return (4.0 / math.pi) * (s / R ** 2) * math.acos(x) \
        - (2.0 / math.pi) * (s ** 2 / R ** 3) * math.sqrt(max(1.0 - x * x, 0.0))


def p4_closed(s: float, R: float = 1.0) -> float:
    """Uniform 4-ball pair-distance density, trigonometric closed form."""
    x = s / (2.0 * R)
    w = max(1.0 - x * x, 0.0)
    return (8.0 / math.pi) * (s ** 3 / R ** 4) * math.acos(x) \
        - (8.0 / (3.0 * math.pi)) * (s ** 4 / R ** 5) * w ** 1.5 \
        - (4.0 / math.pi) * (s ** 4 / R ** 5) * math.sqrt(w)


# ---------------------------------------------------------------------------
# Equal-thickness shell tables (R = 1); dicts map power of s -> Fraction.
# ---------------------------------------------------------------------------

def shell2_regions(r1, r2):
    r1, r2 = F(r1), F(r2)
    d = (r1 + 7 * r2) ** 2
    return [
        {2: 24 * (r1 ** 2 + 7 * r2 ** 2) / d,
         3: -36 * (r1 ** 2 - 2 * r1 * r2 + 5 * r2 ** 2) / d,
         5: 12 * (r1 ** 2 - 2 * r1 * r2 + 2 * r2 ** 2) / d},
        {1: -F(81, 2) * (r1 - r2) * r2 / d,
         2: 24 * r1 / (r1 + 7 * r2),
         3: -36 * r1 * (r1 + 3 * r2) / d,
         5: 12 * r1 ** 2 / d},
        {1: -F(81, 2) * (r1 - r2) * r2 / d,
         2: 24 * (9 * r1 - r2) * r2 / d,
         3: -36 * (5 * r1 - r2) * r2 / d,
         5: 12 * (2 * r1 - r2) * r2 / d},
        {2: 192 * r2 ** 2 / d,
         3: -144 * r2 ** 2 / d,
         5: 12 * r2 ** 2 / d},
    ]


def shell3_regions(r1, r2, r3):
    r1, r2, r3 = F(r1), F(r2), F(r3)
    d = (r1 + 7 * r2 + 19 * r3) ** 2
    return [
        {2: 81 * (r1 ** 2 + 7 * r2 ** 2 + 19 * r3 ** 2) / d,
         3: -F(729, 4) * (r1 ** 2 - 2 * r1 * r2 + 5 * r2 ** 2 - 8 * r2 * r3 + 13 * r3 ** 2) / d,
         5: F(2187, 16) * (r1 ** 2 - 2 * r1 * r2 + 2 * r2 ** 2 - 2 * r2 * r3 + 2 * r3 ** 2) / d},
        {1: -F(81, 8) * (r2 - r3) * (9 * r1 - 9 * r2 + 25 * r3) / d,
         2: 81 * (r1 ** 2 + 7 * r1 * r2 - 7 * r1 * r3 + 26 * r2 * r3) / d,
         3: -F(729, 4) * (r1 ** 2 + 3 * r1 * r2 - 5 * r1 * r3 + 10 * r2 * r3) / d,
         5: F(2187, 16) * (r1 ** 2 - 2 * r1 * r3 + 2 * r2 * r3) / d},
        {1: -F(81, 8) * (9 * r1 * r2 - 9 * r2 ** 2 + 55 * r1 * r3 - 30 * r2 * r3 - 25 * r3 ** 2) / d,
         2: 81 * (9 * r1 * r2 - r2 ** 2 + 19 * r1 * r3) / d,
         3: -F(729, 4) * (5 * r1 * r2 - r2 ** 2 + 5 * r1 * r3) / d,
         5: F(2187, 16) * (2 * r1 - r2) * r2 / d},
        {1: -F(81, 8) * (64 * r1 - 39 * r2 - 25 * r3) * r3 / d,
         2: 81 * (8 * r2 ** 2 + 28 * r1 * r3 - 9 * r2 * r3) / d,
         3: -F(729, 4) * (4 * r2 ** 2 + 10 * r1 * r3 - 5 * r2 * r3) / d,
         5: F(2187, 16) * (r2 ** 2 + 2 * r1 * r3 - 2 * r2 * r3) / d},
        {1: -F(2025, 8) * (r2 - r3) * r3 / d,
         2: 81 * (35 * r2 - 8 * r3) * r3 / d,
         3: -F(729, 4) * (13 * r2 - 4 * r3) * r3 / d,
         5: F(2187, 16) * (2 * r2 - r3) * r3 / d},
        {2: 2187 * r3 ** 2 / d,
         3: -F(6561, 4) * r3 ** 2 / d,
         5: F(2187, 16) * r3 ** 2 / d},
    ]


def shell4_regions(r1, r2, r3, r4, corrected: bool = True):
    """Eight-region table. ``corrected=True`` applies the two continuity
    fixes; ``corrected=False`` reproduces the misprinted coefficients."""
    r1, r2, r3, r4 = F(r1), F(r2), F(r3), F(r4)
    d = (r1 + 7 * r2 + 19 * r3 + 37 * r4) ** 2
    region3_s5 = (2 * r1 * r2 if corrected else 2 * r1 * r3)
    region7_s5 = (2 * r3 if corrected else 2 * r2)
    return [
        {2: 192 * (r1 ** 2 + 7 * r2 ** 2 + 19 * r3 ** 2 + 37 * r4 ** 2) / d,
         3: -576 * (r1 ** 2 - 2 * r1 * r2 + 5 * r2 ** 2 - 8 * r2 * r3 + 13 * r3 ** 2
                    - 18 * r3 * r4 + 25 * r4 ** 2) / d,
         5: 768 * (r1 ** 2 - 2 * r1 * r2 + 2 * r2 ** 2 - 2 * r2 * r3 + 2 * r3 ** 2
                   - 2 * r3 * r4 + 2 * r4 ** 2) / d},
        {1: -18 * (9 * r1 * r2 - 9 * r2 ** 2 - 9 * r1 * r3 + 34 * r2 * r3 - 25 * r3 ** 2
                   - 25 * r2 * r4 + 74 * r3 * r4 - 49 * r4 ** 2) / d,
         2: 192 * (r1 ** 2 + 7 * r1 * r2 - 7 * r1 * r3 + 26 * r2 * r3 - 19 * r2 * r4
                   + 56 * r3 * r4) / d,
         3: -576 * (r1 ** 2 + 3 * r1 * r2 - 5 * r1 * r3 + 10 * r2 * r3 - 13 * r2 * r4
                    + 20 * r3 * r4) / d,
         5: 768 * (r1 ** 2 - 2 * r1 * r3 + 2 * r2 * r3 - 2 * r2 * r4 + 2 * r3 * r4) / d},
        {1: (18 * (9 * r2 ** 2 - 9 * r1 * r2 - 55 * r1 * r3 + 30 * r2 * r3 + 25 * r3 ** 2)
             + 18 * (64 * r1 * r4 - 183 * r2 * r4 + 70 * r3 * r4 + 49 * r4 ** 2)) / d,
         2: 192 * (9 * r1 * r2 - r2 ** 2 + 19 * r1 * r3 - 26 * r1 * r4 + 63 * r2 * r4) / d,
         3: -576 * (5 * r1 * r2 - r2 ** 2 + 5 * r1 * r3 - 10 * r1 * r4 + 17 * r2 * r4) / d,
         5: 768 * (region3_s5 - r2 ** 2 - 2 * r1 * r4 + 2 * r2 * r4) / d},
        {1: -18 * (64 * r1 * r3 - 39 * r2 * r3 - 25 * r3 ** 2 + 161 * r1 * r4
                   - 42 * r2 * r4 - 70 * r3 * r4 - 49 * r4 ** 2) / d,
         2: 192 * (8 * r2 ** 2 + 28 * r1 * r3 - 9 * r2 * r3 + 37 * r1 * r4) / d,
         3: -576 * (4 * r2 ** 2 + 10 * r1 * r3 - 5 * r2 * r3 + 7 * r1 * r4) / d,
         5: 768 * (r2 ** 2 + 2 * r1 * r3 - 2 * r2 * r3) / d},
        {1: -18 * (25 * r2 * r3 - 25 * r3 ** 2 + 225 * r1 * r4 - 106 * r2 * r4
                   - 70 * r3 * r4 - 49 * r4 ** 2) / d,
         2: 192 * (35 * r2 * r3 - 8 * r3 ** 2 + 65 * r1 * r4 - 28 * r2 * r4) / d,
         3: -576 * (13 * r2 * r3 - 4 * r3 ** 2 + 17 * r1 * r4 - 10 * r2 * r4) / d,
         5: 768 * (2 * r2 * r3 - r3 ** 2 + 2 * r1 * r4 - 2 * r2 * r4) / d},
        {1: -18 * (144 * r2 - 95 * r3 - 49 * r4) * r4 / d,
         2: 192 * (27 * r3 ** 2 + 72 * r2 * r4 - 35 * r3 * r4) / d,
         3: -576 * (9 * r3 ** 2 + 20 * r2 * r4 - 13 * r3 * r4) / d,
         5: 768 * (r3 ** 2 + 2 * r2 * r4 - 2 * r3 * r4) / d},
        {1: -882 * (r3 - r4) * r4 / d,
         2: 192 * (91 * r3 - 27 * r4) * r4 / d,
         3: -576 * (25 * r3 - 9 * r4) * r4 / d,
         5: 768 * (region7_s5 - r4) * r4 / d},
        {2: 12288 * r4 ** 2 / d,
         3: -9216 * r4 ** 2 / d,
         5: 768 * r4 ** 2 / d},
    ]


def coeff_dict(piece) -> dict:
    """Piece coefficients as {power: Fraction}, dropping zeros."""
    return {k: c for k, c in enumerate(piece) if c != 0}


def nonzero(table: dict) -> dict:
    """Reference-table dict with structural zeros removed (coefficients can
    vanish for particular density values)."""
    return {k: c for k, c in table.items() if c != 0}


# ---------------------------------------------------------------------------
# Printed polynomial tables summed in floats at a fixed split
# ---------------------------------------------------------------------------

def split_at_1p4r(table: dict, s, R: float):
    """sum_k c_k s^k / R^(k+1) (``table`` maps k to the Fraction c_k) on
    s in [0, 2R]: in powers of s/R up to 1.4R, and above it in powers of
    (2R - s)/R from the exact re-expansion about 2R. The float evaluator of
    the printed and odd-n tables before one bound-split evaluator took them
    over; the package must be no less accurate."""
    s = np.asarray(s, dtype=float)
    at_2r = [F(0)] * (max(table) + 1)
    for k, c in table.items():
        for j in range(k + 1):
            at_2r[j] += c * math.comb(k, j) * 2 ** (k - j) * (-1) ** j
    t = s / R
    low = sum(float(c) * np.power(t, k) for k, c in table.items()) / R
    high = np.polynomial.polynomial.polyval((2.0 * R - s) / R, [float(d) for d in at_2r]) / R
    return np.where(s > 1.4 * R, high, low)


# ---------------------------------------------------------------------------
# Shells in any dimension from hyperspherical cap volumes
# ---------------------------------------------------------------------------

def _ball_volume(n: int, r: float) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n


def _cap_volume(n: int, r: float, h: float) -> float:
    """Volume of the part of B_r beyond the hyperplane at signed distance h
    from its centre: (|B_r|/2) I_{1-h^2/r^2}((n+1)/2, 1/2) for 0 <= h <= r
    (Li 2011, "Concise formulas for the area and volume of a hyperspherical
    cap"), and |B_r| minus the opposite cap for h < 0. The regularized beta
    is taken as 1 - I_{h^2/r^2}(1/2, (n+1)/2), so a small h keeps its digits."""
    if h >= r:
        return 0.0
    if h <= -r:
        return _ball_volume(n, r)
    cap = 0.5 * _ball_volume(n, r) * betaincc(0.5, (n + 1) / 2.0, (h / r) ** 2)
    return cap if h >= 0.0 else _ball_volume(n, r) - cap


def _overlap_volume(n: int, a: float, b: float, s: float) -> float:
    """Volume of B_a(0) and B_b(s e) together: two caps cut by the radical
    hyperplane at distance d = (s^2 + a^2 - b^2)/2s from the first centre,
    for n >= 2."""
    if s == 0.0:
        return _ball_volume(n, min(a, b))
    d = (s * s + a * a - b * b) / (2.0 * s)
    return _cap_volume(n, a, d) + _cap_volume(n, b, s - d)


def shells_cap_pdf(n: int, radii, densities, s: float) -> float:
    """P_n(s) for the shell density rho = rho_k on r_{k-1} < r <= r_k.

    With c_i = rho_i - rho_{i+1}, rho is the sum of the uniform balls
    c_i 1[r <= r_i], so
    P(s) = |S^(n-1)| s^(n-1) sum_ij c_i c_j V(r_i, r_j; s) / (sum_i c_i |B_{r_i}|)^2.

    At n = 1, V is the length of [-a, a] and [s - b, s + b] together, and
    the lengths are summed in exact rationals: for a thin shell the sum
    cancels to far below its float rounding, which the small squared mass
    then magnifies.
    """
    if n == 1:
        radii = [F(r) for r in radii]
        dens = [F(d) for d in densities] + [F(0)]
        c = [dens[i] - dens[i + 1] for i in range(len(radii))]
        s = F(s)
        overlap = sum(ci * cj * max(F(0), min(a, s + b) - max(-a, s - b))
                      for ci, a in zip(c, radii) for cj, b in zip(c, radii))
        mass = sum(ci * 2 * r for ci, r in zip(c, radii))
        return float(2 * overlap / mass ** 2)
    radii = [float(r) for r in radii]
    dens = [float(d) for d in densities] + [0.0]
    c = [dens[i] - dens[i + 1] for i in range(len(radii))]
    mass = sum(ci * _ball_volume(n, r) for ci, r in zip(c, radii))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    overlap = sum(ci * cj * _overlap_volume(n, a, b, s)
                  for ci, a in zip(c, radii) for cj, b in zip(c, radii))
    return area * s ** (n - 1) * overlap / mass ** 2


def shells_quadpack_pdf(n: int, radii, densities, s: float, epsabs: float = 1e-10) -> float:
    """P_n(s) for the same shell density by nested QUADPACK, R = radii[-1].

    The overlap integral of rho(X) rho(X - s e) reduces to an outer integral
    over the slice height x in [s/2, R] of the slice integral J(x): for
    n >= 2 a radial integral in t over the perpendicular (n-1)-ball of radius
    sqrt(R^2 - x^2), weighted by the (n-2)-sphere area; for n = 1 the point
    value rho(x) rho(|x - s|). J has square-root kinks where a shell boundary
    enters the slice (x = r_k, s - r_k, s + r_k) or two shell circles cross on
    it, x = (r_i^2 - r_j^2 + s^2)/2s. [s/2, R] is cut at all of these, piece i
    is mapped to v in [i, i+1] by x = lo + h (1 - cos pi (v - i)), whose
    Jacobian smooths every edge, and the inner integral is split where t
    meets a shell boundary. The curve is divided by its exact integral,
    (sum_i c_i |B_(r_i)|)^2 / (2 |S^(n-1)|).
    """
    radii = [float(r) for r in radii]
    dens = [float(d) for d in densities]
    R = radii[-1]
    if s >= 2.0 * R:
        return 0.0

    def rho(r):
        i = bisect_left(radii, r)
        return dens[i] if i < len(dens) else 0.0

    events = {p for r in radii for p in (r, s - r, s + r)}
    if s > 0.0:
        events.update((a * a - b * b + s * s) / (2.0 * s) for a in radii for b in radii)
    cuts = [s / 2.0] + sorted(p for p in events if s / 2.0 < p < R) + [R]

    if n == 1:
        def slice_integral(x):
            return rho(x) * rho(abs(x - s))
    else:
        def slice_integral(x):
            tmax = math.sqrt(max(R * R - x * x, 0.0))
            if tmax == 0.0:
                return 0.0
            tk = []
            for rk in radii:
                if abs(x) < rk:
                    tk.append(math.sqrt(rk * rk - x * x))
                if abs(x - s) < rk:
                    tk.append(math.sqrt(rk * rk - (x - s) ** 2))
            tk = sorted({t for t in tk if 0.0 < t < tmax})
            val, _ = quad(lambda t: t ** (n - 2) * rho(math.hypot(x, t)) * rho(math.hypot(x - s, t)),
                          0.0, tmax, epsabs=epsabs, limit=200, points=tk or None)
            return val

    def outer(v):
        i = min(int(v), len(cuts) - 2)
        lo, h = cuts[i], (cuts[i + 1] - cuts[i]) / 2.0
        u = math.pi * (v - i)
        return slice_integral(lo + h * (1.0 - math.cos(u))) * h * math.pi * math.sin(u)

    pieces = len(cuts) - 1
    val, _ = quad(outer, 0.0, pieces, epsabs=30.0 * epsabs, limit=200,
                  points=list(range(1, pieces)) or None)
    c = [d - e for d, e in zip(dens, dens[1:] + [0.0])]
    mass = sum(ci * _ball_volume(n, r) for ci, r in zip(c, radii))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    if n > 1:
        val *= s ** (n - 1) * 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    return val / (mass * mass / (2.0 * area))


def radial_nested_pdf(n: int, R: float, coefficients, s: float, tol: float = 1e-8) -> float:
    """P_n(s) for rho(r) = sum_k c_k r^k on the ball of radius R by nested
    QUADPACK, the arithmetic of ``pdf_radial_numeric`` for every smooth
    profile before the slice integral had a closed form, kept bit for bit.

    The outer integral runs over the slice height x in [s/2, R], mapped by
    x = s/2 + h (1 - cos pi v); the inner one over the radius t of the
    perpendicular (n-1)-ball, weighted by t^(n-2) |S^(n-2)|. The curve is
    divided by (Int_B rho)^2 / (2 |S^(n-1)|), all factors in log space.
    """
    coeffs = tuple(reversed([float(c) for c in coefficients]))

    def rho(r):
        if r > R:
            return 0.0
        acc = 0.0
        for c in coeffs:
            acc = acc * r + c
        return acc

    def log_sphere_area(k):
        return math.log(2.0) + k / 2.0 * math.log(math.pi) - math.lgamma(k / 2.0)

    moment = sum(c * R ** k / (n + k) for k, c in enumerate(coefficients))
    log_mass = log_sphere_area(n) + n * math.log(R) + math.log(abs(moment))
    log_scale = -(2.0 * log_mass - math.log(2.0) - log_sphere_area(n))
    epsabs = tol * 1e-2
    if s >= 2.0 * R:
        return 0.0
    if n == 1:
        log_factor = log_scale
    elif s == 0.0:
        return 0.0
    else:
        log_factor = (log_scale + (n - 1) * math.log(s) + math.log(2.0)
                      + (n - 1) / 2.0 * math.log(math.pi) - math.lgamma((n - 1) / 2.0))
    factor = math.exp(log_factor)
    epsabs /= max(factor, 1.0)
    lo, h = s / 2.0, (R - s / 2.0) / 2.0

    if n == 1:
        def slice_integral(x):
            return rho(x) * rho(abs(x - s))
    else:
        def slice_integral(x):
            tmax = math.sqrt(max(R * R - x * x, 0.0))
            return quad(lambda t: t ** (n - 2) * rho(math.hypot(x, t)) * rho(math.hypot(x - s, t)),
                        0.0, tmax, epsabs=epsabs, limit=200)[0]

    def outer(v):
        u = math.pi * v
        return slice_integral(lo + h * (1.0 - math.cos(u))) * h * math.pi * math.sin(u)

    val, _ = quad(outer, 0.0, 1.0, epsabs=30.0 * epsabs, limit=200)
    return factor * val


# ---------------------------------------------------------------------------
# One-shot counter stream: every output in a single whole-array pass
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_XOR = np.uint64(0xA3EC647659359ACD)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


class OneShotStream:
    """The (seed, stream) sequence of ``nballdist._rng``, whole arrays at once."""

    def __init__(self, seed, stream=0, counter=0):
        self.counter = counter
        with np.errstate(over="ignore"):
            s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _SEED_XOR
            base = _mix(_mix(np.array([s], dtype=np.uint64))
                        + np.uint64(stream & 0xFFFFFFFFFFFFFFFF) * _GOLDEN)
        self._base = base[0]

    def words(self, k):
        idx = np.arange(self.counter + 1, self.counter + k + 1, dtype=np.uint64)
        self.counter += k
        with np.errstate(over="ignore"):
            return _mix(self._base + idx * _GOLDEN)

    def uniforms(self, k):
        return (self.words(k) >> np.uint64(11)).astype(np.float64) / float(1 << 53)

    def normals(self, k):
        """The main test on the whole array; the words that fail it go to
        the per-element ``ziggurat_normal``."""
        c = self.counter
        w = self.words(2 * ((k + 1) // 2))[:k]
        j = (w & np.uint64(511)).astype(np.intp)
        u = w >> np.uint64(11)
        z = u * (np.where(j >= 256, -_rng._X[j & 255], _rng._X[j & 255]) * 2.0 ** -53)
        for e in np.flatnonzero(u >= _rng._K[j & 255]):
            z[e] = ziggurat_normal(int(self._base), c + int(e))[0]
        return z


# ---------------------------------------------------------------------------
# Whole-batch direct samplers over the one-shot stream
# ---------------------------------------------------------------------------

def _scaled_rows(z, radii):
    """Rows of z rescaled to the given lengths (a zero row stays zero)."""
    norm = np.sqrt(np.sum(z * z, axis=1))
    norm[norm == 0.0] = 1.0
    return z * (radii / norm)[:, None]


def uniform_ball_batch(n, R, seed, stream, count):
    """count uniform points in the n-ball: count x n normals, then count
    radii R U^(1/n) from the words after them."""
    rng = OneShotStream(seed, stream)
    z = rng.normals(count * n).reshape(count, n)
    return _scaled_rows(z, R * rng.uniforms(count) ** (1.0 / n))


def gaussian_batch(n, sigma, seed, stream, count):
    return OneShotStream(seed, stream).normals(count * n).reshape(count, n) * sigma


def shells_batch(n, radii, densities, seed, stream, count):
    """Shell picks from the first count uniforms, inverse CDF of the
    piecewise r^n radial mass, directions from the normals after them."""
    rng = OneShotStream(seed, stream)
    dens = np.array(densities, dtype=float)
    rn = np.concatenate([[0.0], np.array(radii, dtype=float) ** n])
    cum = np.concatenate([[0.0], np.cumsum(dens * np.diff(rn))])
    v = rng.uniforms(count) * cum[-1]
    z = rng.normals(count * n).reshape(count, n)
    idx = np.clip(np.searchsorted(cum, v, side="right") - 1, 0, len(dens) - 1)
    safe = np.where(dens > 0.0, dens, 1.0)
    return _scaled_rows(z, (rn[idx] + (v - cum[idx]) / safe[idx]) ** (1.0 / n))


def monomial_batch(exponents, R, seed, stream, count):
    """count points of the density prod x_i^e_i: count x n normals, then
    count rows of k = sum(e)/2 + 1 uniforms from the words after them.
    Gamma((e_i+1)/2) is z_i^2/2 plus the e_i/2 exponentials -log(1 - U) of
    coordinate i's columns, added in turn; the last column is the slack's
    Gamma(1), added to the total after the coordinates."""
    rng = OneShotStream(seed, stream)
    n, k = len(exponents), sum(exponents) // 2 + 1
    z = rng.normals(count * n).reshape(count, n)
    expo = -np.log(1.0 - rng.uniforms(count * k).reshape(count, k))
    g = 0.5 * z * z
    cols = iter(range(k - 1))
    for i, e in enumerate(exponents):
        for _ in range(e // 2):
            g[:, i] += expo[:, next(cols)]
    total = g[:, 0].copy()
    for i in range(1, n):
        total += g[:, i]
    total += expo[:, -1]
    return np.copysign(R * np.sqrt(g / total[:, None]), z)


_MASK64 = (1 << 64) - 1


def _mix_int(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix_base(seed, stream):
    return _mix_int((_mix_int(seed ^ 0xA3EC647659359ACD) + stream * 0x9E3779B97F4A7C15) & _MASK64)


def splitmix_word(seed, stream, i):
    """word(i) of the _rng docstring, in plain Python integers."""
    return _mix_int((splitmix_base(seed, stream) + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64)


_ZIGGURAT_TABLES = ([float(x) for x in _rng._X], [int(k) for k in _rng._K],
                    [float(f) for f in _rng._F])


def ziggurat_normal(base, i):
    """The normal of word i of the sequence with the given base, one
    element in plain Python: Marsaglia and Tsang's loop as the _rng
    docstring states it, with the words, companion words and tests in
    Python integers and floats. exp and log are numpy's, as in the package.
    Returns (value, path), path listing "wedge" or "tail" per attempt
    after the main test ([] if the main test accepted)."""
    golden, r = 0x9E3779B97F4A7C15, 3.6541528853610088
    X, K, fx = _ZIGGURAT_TABLES
    w = _mix_int((base + (i + 1) * golden) & _MASK64)
    h = _mix_int(((base ^ 0x5851F42D4C957F2D) + (i + 1) * golden) & _MASK64)
    path = []
    for a in itertools.count():
        layer, negative, u = w & 255, bool(w & 256), w >> 11
        z = u * ((-X[layer] if negative else X[layer]) * 2.0 ** -53)
        if a == 0 and u < K[layer]:
            return z, path
        wa = _mix_int((h + (2 * a + 1) * golden) & _MASK64)
        wb = _mix_int((h + (2 * a + 2) * golden) & _MASK64)
        if layer == 0:
            path.append("tail")
            x = -float(np.log(1.0 - (wa >> 11) * 2.0 ** -53)) / r
            y = -float(np.log(1.0 - (wb >> 11) * 2.0 ** -53))
            if y + y >= x * x:
                return (-(r + x) if negative else r + x), path
            continue
        path.append("wedge")
        if fx[layer] + (wa >> 11) * 2.0 ** -53 * (fx[layer - 1] - fx[layer]) < float(
                np.exp(-0.5 * (z * z))):
            return z, path
        w = wb
        layer, u = w & 255, w >> 11
        if u < K[layer]:
            return u * ((-X[layer] if w & 256 else X[layer]) * 2.0 ** -53), path


def master_quad_per_rotation(geometry, density, s, nodes):
    """The unnormalized master-formula quadrature on the package's cap and
    angular rules, one rotation matrix and two ``density_value`` calls at a
    time, each rotation's weighted sum added in rotation order."""
    n, R = geometry.dimension, geometry.radius
    if s >= 2.0 * R:
        return 0.0
    X, Wc = _cap_rule(geometry, s, nodes)
    rots, w_ang = _angular_rule(n, nodes)
    S = np.zeros(n)
    S[-1] = s
    XS = X - S
    total = 0.0
    for m, wa in zip(rots, w_ang):
        a = density_value(density, X @ m, geometry)
        b = density_value(density, XS @ m, geometry)
        total += wa * float(np.sum(Wc * a * b))
    return s ** (n - 1) * total
