"""Shared domain types and the special-function kernel.

The closed forms of uniform, symmetric and arbitrary, the moments and the
self-energies are built on the functions in this module (the chi-square
p-values of montecarlo call ``scipy.special.gammaincc`` directly):
log-gamma, beta, incomplete beta, regularized incomplete beta, upper
incomplete gamma, and the specific Gauss hypergeometric family
2F1(1/2, (1-n)/2; 3/2; x). Most are thin wrappers that check the domain
(raising ``DomainError``) and then call ``math.lgamma`` or ``scipy.special``
(``betainc``, ``gammaincc``, ``exp1``). Two are summed here: the
terminating odd-n 2F1 sum, and, where Q(a, b) underflows, the continued
fraction of ``inc_gamma_upper`` (``_inc_gamma_upper_cf``), whose exponent is
summed in 40-digit decimal.

All functions are pure: same inputs give bit-identical outputs, and there is
no shared mutable state, so every operation here is thread-safe.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special

__all__ = [
    "GeoProbError",
    "DomainError",
    "UnsupportedError",
    "InvalidRepresentationError",
    "DivergentMomentError",
    "InvalidDensityError",
    "EfficiencyError",
    "PrecisionError",
    "InsufficientDataError",
    "BallGeometry",
    "Uniform",
    "RadialPolynomial",
    "ParabolicRadial",
    "Gaussian",
    "MultiShell",
    "CartesianMonomial",
    "GeneralCartesian",
    "DensityModel",
    "log_gamma",
    "beta",
    "log_beta",
    "inc_beta",
    "reg_inc_beta",
    "hyp2f1_halfint",
    "inc_gamma_upper",
    "double_factorial",
    "density_is_radial",
    "density_value",
    "density_radial_value",
    "density_bound",
    "density_mass",
    "log_density_mass",
    "sphere_area",
    "log_sphere_area",
]


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------

class GeoProbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GeoProbError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedError(GeoProbError, ValueError):
    """A structurally valid request that this implementation does not cover."""


class InvalidRepresentationError(GeoProbError, ValueError):
    """A representation was requested whose parity constraint is violated."""


class DivergentMomentError(GeoProbError, ValueError):
    """The requested moment integral does not converge."""


class InvalidDensityError(GeoProbError, ValueError):
    """A density model violates its invariants or fits the wrong variant."""


class EfficiencyError(GeoProbError, RuntimeError):
    """A rejection sampler's acceptance rate collapsed below the usable floor."""


class PrecisionError(GeoProbError, ValueError):
    """A request exceeds the numerically stable operating range."""


class InsufficientDataError(GeoProbError, RuntimeError):
    """Not enough data to form the requested statistic."""


# ---------------------------------------------------------------------------
# Geometry and density models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallGeometry:
    """Solid n-dimensional ball x_1^2 + ... + x_n^2 <= R^2.

    The support of any pair-distance PDF on this geometry is exactly
    [0, 2*radius].
    """
    dimension: int
    radius: float = 1.0

    def __post_init__(self):
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise DomainError(f"radius must be positive and finite, got {self.radius!r}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class Uniform:
    """Constant density inside the ball."""


@dataclass(frozen=True)
class RadialPolynomial:
    """Radial density proportional to sum_k c_k r^k (c_k = coefficients[k])."""
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            raise InvalidDensityError("radial polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise InvalidDensityError(f"coefficients must be finite: {self.coefficients}")


@dataclass(frozen=True)
class ParabolicRadial:
    """Radial density proportional to 1 - alpha*(r/R)^2 with alpha in [0, 1]."""
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class Gaussian:
    """Isotropic Gaussian density exp(-r^2 / 2 sigma^2); support is all of space."""
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma!r}")


@dataclass(frozen=True)
class MultiShell:
    """Piecewise-constant radial density: rho_k on r in [r_{k-1}, r_k], r_0 = 0.

    ``radii`` are the outer shell boundaries 0 < r_1 < ... < r_K = R and
    ``densities`` the per-shell constants (all >= 0, at least one positive).
    Entries may be ints, floats, or ``fractions.Fraction``; exact types are
    preserved so the shell polynomial can be assembled in rational arithmetic.
    """
    radii: tuple
    densities: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(self.radii))
        object.__setattr__(self, "densities", tuple(self.densities))
        radii = [float(r) for r in self.radii]
        dens = [float(d) for d in self.densities]
        if len(radii) != len(dens) or len(radii) == 0:
            raise InvalidDensityError("radii and densities must be equal-length, non-empty")
        if not all(math.isfinite(v) for v in radii + dens):
            raise InvalidDensityError(f"shell radii and densities must be finite: {radii}, {dens}")
        if radii[0] <= 0.0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidDensityError(f"shell radii must be strictly increasing and positive: {radii}")
        if any(d < 0.0 for d in dens) or not any(d > 0.0 for d in dens):
            raise InvalidDensityError("shell densities must be >= 0 with at least one > 0")


@dataclass(frozen=True)
class CartesianMonomial:
    """Density proportional to prod_i x_i^{e_i}; exponents must be even so the
    density is non-negative on the whole ball."""
    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) == 0 or any(e < 0 for e in exps):
            raise InvalidDensityError(f"exponents must be non-negative integers: {exps}")
        if any(e % 2 for e in exps):
            raise InvalidDensityError("odd exponents give a sign-changing density; use even exponents")


@dataclass(frozen=True)
class GeneralCartesian:
    """User-supplied density callback with a certified upper bound over the ball.

    ``func`` receives an (m, n) array of Cartesian points and returns m
    non-negative values; ``bound`` must dominate the density everywhere on
    the ball.
    """
    func: Callable[[np.ndarray], np.ndarray]
    bound: float

    def __post_init__(self):
        if not callable(self.func):
            raise InvalidDensityError("func must be callable")
        if not (self.bound > 0.0) or not math.isfinite(self.bound):
            raise InvalidDensityError(f"bound must be positive and finite, got {self.bound!r}")


DensityModel = Union[
    Uniform, RadialPolynomial, ParabolicRadial, Gaussian,
    MultiShell, CartesianMonomial, GeneralCartesian,
]


def _as_support(geometry: BallGeometry, s) -> np.ndarray:
    """``s`` as a float array (0-d for a scalar), every element in [0, 2R]."""
    arr = np.asarray(s, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= geometry.diameter))
    if np.any(bad):
        raise DomainError(f"s={float(arr[bad][0])!r} outside the support [0, {geometry.diameter}]")
    return arr


def density_is_radial(model: DensityModel) -> bool:
    return isinstance(model, (Uniform, RadialPolynomial, ParabolicRadial, Gaussian, MultiShell))


def density_radial_value(model: DensityModel, r, geometry: BallGeometry = None):
    """Unnormalized radial profile rho(r) for a radial density model.

    Values outside the ball are zero for ball-supported models (the Gaussian
    has infinite support). Accepts scalars or arrays.
    """
    r = np.asarray(r, dtype=float)
    if isinstance(model, Uniform):
        out = np.ones_like(r)
    elif isinstance(model, RadialPolynomial):
        out = np.polynomial.polynomial.polyval(r, np.array(model.coefficients))
    elif isinstance(model, ParabolicRadial):
        if geometry is None:
            raise InvalidDensityError("parabolic radial profile needs the geometry for R")
        out = 1.0 - model.alpha * (r / geometry.radius) ** 2
    elif isinstance(model, Gaussian):
        return np.exp(-0.5 * (r / model.sigma) ** 2)
    elif isinstance(model, MultiShell):
        radii = np.array([float(v) for v in model.radii])
        dens = np.array([float(v) for v in model.densities])
        idx = np.searchsorted(radii, r, side="left")
        return np.where(idx < len(dens), dens[np.minimum(idx, len(dens) - 1)], 0.0)
    else:
        raise InvalidDensityError(f"{type(model).__name__} is not a radial density")
    if geometry is not None:
        out = np.where(r <= geometry.radius, out, 0.0)
    return out


def density_value(model: DensityModel, points: np.ndarray, geometry: BallGeometry = None) -> np.ndarray:
    """Unnormalized density evaluated at Cartesian ``points`` of shape (m, n)."""
    points = np.asarray(points, dtype=float)
    if isinstance(model, CartesianMonomial):
        if points.shape[-1] != len(model.exponents):
            raise InvalidDensityError("exponent count does not match point dimension")
        # Every exponent is even, so |x|^e: numpy's float64 power takes about
        # 140 ns per element for a negative base and 4 ns for a positive one
        # (numpy 2.4, x86-64), and the product is exactly even in each
        # coordinate. x^2 is x * x either way and needs no |x|.
        out = None
        for i, e in enumerate(model.exponents):
            if e:
                if e == 2:
                    f = np.square(points[..., i])
                else:
                    f = np.abs(points[..., i])
                    f **= e
                if out is None:
                    out = f
                else:
                    out *= f
        return np.ones(points.shape[:-1]) if out is None else out
    if isinstance(model, GeneralCartesian):
        return np.asarray(model.func(points), dtype=float)
    return density_radial_value(model, np.sqrt(_row_sumsq(points)), geometry)


def _row_sumsq(z: np.ndarray) -> np.ndarray:
    """Sums of z * z over the last axis, bit for bit ``np.sum(z * z,
    axis=-1)``: below 8 columns numpy adds a row's squares in sequence, so
    column adds in place give the same sums without a z-sized temporary."""
    n = z.shape[-1]
    if n >= 8:  # numpy sums longer rows pairwise
        return np.sum(z * z, axis=-1)
    acc = np.multiply(z[..., 0], z[..., 0])
    sq = np.empty_like(acc)
    for j in range(1, n):
        np.multiply(z[..., j], z[..., j], out=sq)
        acc += sq
    return acc


def density_bound(model: DensityModel, geometry: BallGeometry) -> float:
    """Upper bound on the unnormalized density over the ball, used as the
    rejection-sampling envelope of the models that have no direct sampler;
    PrecisionError where a radial polynomial's is not a normal double."""
    if isinstance(model, ParabolicRadial):
        return 1.0
    if isinstance(model, GeneralCartesian):
        return float(model.bound)
    if isinstance(model, RadialPolynomial):
        _check_nonnegative(model, geometry)
        # Maximum of q(t) = 2^-e rho(R t) over a grid of t in [0, 1] and the roots
        # of q' there, with a margin, then scaled back by 2^e exactly; every
        # accepted candidate is also checked against the bound when sampled.
        q, e = _scaled_coefficients(model, geometry.radius)
        poly = np.polynomial.polynomial
        roots = poly.polyroots(poly.polyder(q)).real
        t = np.concatenate([np.linspace(0.0, 1.0, 4097), roots[(roots > 0.0) & (roots < 1.0)]])
        unit = float(np.max(poly.polyval(t, q))) * (1.0 + 1e-9) + 1e-300
        if not -1021 <= math.frexp(unit)[1] + e <= 1024:  # 2^e unit is normal
            raise PrecisionError("the density bound on this ball is not a normal double")
        return math.ldexp(unit, e)
    raise InvalidDensityError(f"no bound rule for {type(model).__name__}")


def _scaled_coefficients(model: RadialPolynomial, radius: float) -> tuple:
    """(q, e) with sum_k c_k r^k = 2^e sum_k q_k (r/R)^k: the profile on the
    unit ball. Where R and the largest |c_k R^k| lie within about 2^(+-32),
    q_k is c_k R^k, computed directly, and e = 0, which keeps the R = 1
    bytes of ``log_density_mass``; elsewhere the powers of R are split into
    mantissa and exponent, so that no c_k R^k need be representable, and
    the largest |q_k| lies in [1/2, 1)."""
    m, e = math.frexp(radius)
    terms = [c * m ** k for k, c in enumerate(model.coefficients)]
    top = max((math.frexp(t)[1] + k * e for k, t in enumerate(terms) if t), default=0)
    if abs(top) <= 32 and abs(e) <= 32:
        return tuple(c * radius ** k for k, c in enumerate(model.coefficients)), 0
    return tuple(math.ldexp(t, k * e - top) for k, t in enumerate(terms)), top


def _check_nonnegative(model: RadialPolynomial, geometry: BallGeometry) -> None:
    """InvalidDensityError unless the profile is nonnegative on [0, R], to
    1e-12 of its largest value, checked on a grid of 4097 radii."""
    q, _ = _scaled_coefficients(model, geometry.radius)
    vals = np.polynomial.polynomial.polyval(np.linspace(0.0, 1.0, 4097), q)
    if np.any(vals < -1e-12 * float(np.max(np.abs(vals)))):
        raise InvalidDensityError("radial polynomial is negative inside the ball")


def log_sphere_area(n: int) -> float:
    """ln |S^(n-1)|, finite in every dimension."""
    return math.log(2.0) + n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0)


def sphere_area(n: int) -> float:
    """Surface area |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2) of the unit sphere in R^n."""
    return math.exp(log_sphere_area(n))


def _radial_moment(model: DensityModel, geometry: BallGeometry):
    """(m, e) with 2^e m = Int_0^R rho(r) r^(n-1) dr / R^n for a radial model
    on the ball (e = 0 but for radial polynomials, whose powers of R it
    holds), None for any other model; the mass is |S^(n-1)| R^n 2^e m."""
    n, R = geometry.dimension, geometry.radius
    if isinstance(model, Uniform):
        return 1.0 / n, 0
    if isinstance(model, RadialPolynomial):
        q, e = _scaled_coefficients(model, R)
        return sum(c / (n + k) for k, c in enumerate(q)), e
    if isinstance(model, ParabolicRadial):
        return 1.0 / n - model.alpha / (n + 2.0), 0
    if isinstance(model, MultiShell):
        edges = [0.0] + [min(float(r) / R, 1.0) ** n for r in model.radii]
        return sum(float(d) * (b - a) for d, a, b in zip(model.densities, edges, edges[1:])) / n, 0
    return None


def log_density_mass(model: DensityModel, geometry: BallGeometry) -> float:
    """ln |Int_B rho| of a radial model, formed in log space so that it stays
    finite where the mass itself leaves the double range; -inf for zero mass."""
    found = _radial_moment(model, geometry)
    if found is None:
        raise UnsupportedError(f"no log-space mass for {type(model).__name__}")
    moment, e = found
    if moment == 0.0:
        return -math.inf
    n, R = geometry.dimension, geometry.radius
    return log_sphere_area(n) + n * math.log(R) + math.log(abs(moment)) + e * math.log(2.0)


def density_mass(model: DensityModel, geometry: BallGeometry) -> float:
    """Exact mass Int_B rho of the unnormalized density over the ball: 1-D
    polynomial integrals for radial models; for monomials Folland's
    Int_{S^(n-1)} prod |x_i|^(e_i) = 2 prod Gamma(b_i) / Gamma(sum b_i),
    b_i = (e_i + 1)/2, times R^(n+|e|)/(n+|e|)."""
    n, R = geometry.dimension, geometry.radius
    found = _radial_moment(model, geometry)
    if found is not None:
        return sphere_area(n) * R ** n * math.ldexp(*found)
    if isinstance(model, CartesianMonomial):
        if len(model.exponents) != n:
            raise InvalidDensityError("exponent count does not match point dimension")
        b = [(e + 1) / 2.0 for e in model.exponents]
        etot = sum(model.exponents)
        log_sphere = math.log(2.0) + sum(math.lgamma(v) for v in b) - math.lgamma(sum(b))
        return math.exp(log_sphere) * R ** (n + etot) / (n + etot)
    raise UnsupportedError(f"no closed-form mass for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Special functions: validated wrappers over scipy.special
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Delegates to the C library lgamma, which is accurate to a few ulp over
    the supported range [1e-3, 1e6] and beyond.
    """
    if not (x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(p: float, q: float) -> float:
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({p!r}, {q!r})")
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def beta(p: float, q: float) -> float:
    """Complete beta function B(p, q), routed through log-gamma so that
    half-integer arguments up to n ~ 50 do not overflow (and stay closer
    to the true value than ``scipy.special.beta`` at large p)."""
    return math.exp(log_beta(p, q))


def double_factorial(k: int) -> float:
    """k!! with the conventions 0!! = 1 and (-1)!! = 1."""
    if k < -1:
        raise DomainError(f"double factorial undefined for {k}")
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def reg_inc_beta(x: float, p: float, q: float) -> float:
    """Regularized incomplete beta I_x(p, q) = B_x(p, q) / B(p, q)."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"inc_beta requires p, q > 0, got ({p!r}, {q!r})")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"inc_beta requires x in [0, 1], got {x!r}")
    return float(special.betainc(p, q, x))


def inc_beta(x: float, p: float, q: float) -> float:
    """Incomplete beta B_x(p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt."""
    return reg_inc_beta(x, p, q) * beta(p, q)


def hyp2f1_halfint(n: int, x: float) -> float:
    """2F1(1/2, (1-n)/2; 3/2; x) for integer n >= 1 and x in [0, 1].

    For odd n the series terminates and is summed exactly. For even n it is
    the exact antiderivative identity
    2F1(1/2, (1-n)/2; 3/2; x) = B_x(1/2, (n+1)/2) / (2 sqrt(x)).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 1.0
    if n % 2 == 0:
        return inc_beta(x, 0.5, (n + 1) / 2.0) / (2.0 * math.sqrt(x))
    a, b, c = 0.5, (1.0 - n) / 2.0, 1.5
    total = term = 1.0
    for k in range((n - 1) // 2):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
    return total


_DECIMAL40 = decimal.Context(prec=40)


def _inc_gamma_upper_cf(a: float, b: float) -> float:
    """Gamma(a, b) for b > a + 1 from ln Gamma(a, b) = a ln b - b - ln CF, with
    the continued fraction CF = b + 1 - a - 1 (1 - a) / (b + 3 - a - 2 (2 - a) /
    (b + 5 - a - ...)) by modified Lentz (Numerical Recipes, sec. 6.2). The
    exponent is summed in 40-digit decimal: a ln b and b cancel to far below
    their size, which in doubles costs up to 2e-13 relative at (200, 2000)."""
    tiny = 1e-300
    bi = b + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / bi
    inv_cf = d
    for i in range(1, 1000):
        an = -i * (i - a)
        bi += 2.0
        d = an * d + bi
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = bi + an / c
        if abs(c) < tiny:
            c = tiny
        inv_cf *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            break
    ctx, D = _DECIMAL40, decimal.Decimal
    log_value = ctx.add(ctx.subtract(ctx.multiply(D(a), D(b).ln(ctx)), D(b)), D(math.log(inv_cf)))
    return float(log_value.exp(ctx))


def inc_gamma_upper(a: float, b: float) -> float:
    """Upper incomplete gamma Gamma(a, b) = int_b^inf t^(a-1) e^(-t) dt, a >= 0, b > 0;
    Gamma(0, b) is the exponential integral E_1(b). Q(a, b) Gamma(a) is formed
    in log space, since Gamma(a) alone overflows for a > 171; where Q underflows
    and b > a + 1, a continued fraction gives the value directly. A value
    outside the double range raises PrecisionError."""
    if not (b > 0.0):
        raise DomainError(f"inc_gamma_upper requires b > 0, got {b!r}")
    if a < 0.0:
        raise DomainError(f"inc_gamma_upper requires a >= 0, got {a!r}")
    if a == 0.0:
        return float(special.exp1(b))
    q = special.gammaincc(a, b)
    if q == 0.0 and b > a + 1.0:
        value = _inc_gamma_upper_cf(a, b)
    else:
        with np.errstate(divide="ignore", over="ignore"):
            value = np.exp(np.log(q) + math.lgamma(a))
    if not 0.0 < value < math.inf:
        raise PrecisionError(f"Gamma({a!r}, {b!r}) lies outside the double range")
    return float(value)
