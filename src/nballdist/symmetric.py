"""Pair-distance PDFs for spherically symmetric densities.

Covers the two printed radial closed forms in three dimensions (rho ~ r^2 and
the parabolic family rho ~ 1 - alpha r^2/R^2), a general numeric evaluator for
any radial profile, the Gaussian family on infinite support, and exact
piecewise-polynomial PDFs for piecewise-constant (multi-shell) densities.

The multi-shell construction expresses each shell as a difference of uniform
balls and expands the pair kernel bilinearly over ball pairs using the
two-radius overlap volume, keeping every coefficient in rational arithmetic.
That reproduces the printed equal-thickness 2/3/4-shell tables and extends to
arbitrary boundaries and shell counts.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad

from .core import (
    BallGeometry,
    DensityModel,
    DomainError,
    Gaussian,
    InvalidDensityError,
    MultiShell,
    ParabolicRadial,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
    _as_support,
    density_is_radial,
    density_mass,
    density_radial_value,
    log_gamma,
    sphere_area,
)

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


def pdf_radial_r2(geometry: BallGeometry, s):
    """P_3(s) for the radial density rho ~ r^2 in a 3-ball; s a float or an ndarray."""
    if geometry.dimension != 3:
        raise UnsupportedError("the rho ~ r^2 closed form is only available for n = 3")
    s = _as_support(geometry, s)
    R = geometry.radius
    out = sum(float(c) * s ** k / R ** (k + 1) for k, c in _R2_COEFFS.items())
    return out if out.ndim else float(out)


def pdf_radial_parabolic(geometry: BallGeometry, alpha: float, s):
    """P_3(s) for rho ~ 1 - alpha (r/R)^2, alpha in [0, 1]; alpha = 0 is the
    uniform ball. ``s`` is a float or an ndarray."""
    if geometry.dimension != 3:
        raise UnsupportedError("the parabolic closed form is only available for n = 3")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    s = _as_support(geometry, s)
    R = geometry.radius
    d = 5.0 - 3.0 * alpha
    out = (15.0 * (35.0 - 42.0 * alpha + 15.0 * alpha * alpha) * s ** 2 / (7.0 * d * d * R ** 3)
           - 225.0 * (1.0 - alpha) ** 2 * s ** 3 / (4.0 * d * d * R ** 4)
           - 15.0 * alpha * s ** 4 / (d * R ** 5)
           + 75.0 * (1.0 + 6.0 * alpha - 3.0 * alpha * alpha) * s ** 5 / (16.0 * d * d * R ** 6)
           - 15.0 * alpha * s ** 7 / (8.0 * d * d * R ** 8)
           + 45.0 * alpha * alpha * s ** 9 / (448.0 * d * d * R ** 10))
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
    if isinstance(density, MultiShell):
        radii = [float(v) for v in density.radii]
        dens = [float(v) for v in density.densities]

        def shell(r):
            i = bisect_left(radii, r)
            return dens[i] if i < len(dens) else 0.0
        return shell
    return lambda r: float(density_radial_value(density, r, geometry))


def _radial_unnormalized(geometry: BallGeometry, density: DensityModel, s: float,
                         epsabs: float) -> float:
    """s^(n-1) * int over the lens of rho(X) rho(X - s e_n), reduced to a double
    integral through the (n-2)-sphere area of the perpendicular block."""
    n, R = geometry.dimension, geometry.radius
    rho = _scalar_radial(density, geometry)

    if s >= 2.0 * R:
        return 0.0
    kinks = tuple(float(r) for r in density.radii) if isinstance(density, MultiShell) else ()
    if n == 1:
        pts = sorted({p for p in kinks for p in (p, s - p, -p + s) if s / 2 < p < R})
        val, _ = quad(lambda x: rho(x) * rho(abs(x - s)), s / 2.0, R,
                      epsabs=epsabs, limit=200, points=pts or None)
        return val
    surf = 2.0 * math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n - 1) / 2.0))

    def inner(x):
        tmax = math.sqrt(max(R * R - x * x, 0.0))
        if tmax == 0.0:
            return 0.0
        tk = []
        for rk in kinks:
            if abs(x) < rk:
                tk.append(math.sqrt(rk * rk - x * x))
            if abs(x - s) < rk:
                tk.append(math.sqrt(rk * rk - (x - s) ** 2))
        tk = sorted({t for t in tk if 0.0 < t < tmax})
        val, _ = quad(lambda t: t ** (n - 2) * rho(math.hypot(x, t)) * rho(math.hypot(x - s, t)),
                      0.0, tmax, epsabs=epsabs, limit=200, points=tk or None)
        return val

    xpts = sorted({p for rk in kinks for p in (rk, s - rk, s + rk) if s / 2.0 < p < R})
    # the outer request must sit above the inner quadrature's noise floor,
    # otherwise QUADPACK flags spurious roundoff
    val, _ = quad(inner, s / 2.0, R, epsabs=30.0 * epsabs, limit=200, points=xpts or None)
    return s ** (n - 1) * surf * val


def pdf_radial_numeric(geometry: BallGeometry, density: DensityModel, s: float,
                       tol: float = 1e-8) -> float:
    """P_n(s) for an arbitrary radial density by nested adaptive quadrature.

    The n-fold integral collapses to two nested one-dimensional quadratures
    because the inner n-2 angular integrals are the volume factor of the
    perpendicular (n-1)-ball. The curve is divided by its exact integral over
    [0, 2R], (Int_B rho)^2 / (2 |S^(n-1)|) from ``density_mass``, so it has
    unit mass up to the quadrature error; absolute accuracy is approximately
    ``tol``.
    """
    if not density_is_radial(density):
        raise InvalidDensityError(f"{type(density).__name__} is not a radial density model")
    if isinstance(density, Gaussian):
        raise UnsupportedError("Gaussian support exceeds the ball; use pdf_gaussian")
    if tol < 1e-12:
        raise UnsupportedError("tolerances below 1e-12 are not supported")
    _as_support(geometry, s)
    norm = density_mass(density, geometry) ** 2 / (2.0 * sphere_area(geometry.dimension))
    if norm <= 0.0:
        raise InvalidDensityError("density integrates to zero over the ball")
    return _radial_unnormalized(geometry, density, s, tol * 1e-2) / norm


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
        raise UnsupportedError("shell models are implemented for n = 3 only")
    return _multishell_polynomial_cached(
        geometry.dimension, Fraction(geometry.radius), shells.radii, shells.densities)


def pdf_multishell(geometry: BallGeometry, shells: MultiShell, s):
    """P_3(s) for a multi-shell density (float evaluation of the exact
    polynomial); s a float or an ndarray."""
    return multishell_polynomial(geometry, shells)(_as_support(geometry, s))
