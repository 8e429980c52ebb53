"""Shared domain types and the special-function kernel.

Everything downstream (uniform/symmetric/arbitrary closed forms, moments,
self-energies, chi-square p-values) is built on the functions in this module:
log-gamma, beta, incomplete beta, regularized incomplete beta, upper
incomplete gamma, and the specific Gauss hypergeometric family
2F1(1/2, (1-n)/2; 3/2; x).

All functions are pure: same inputs give bit-identical outputs, and there is
no shared mutable state, so every operation here is thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

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
    "SpecialFunctionResult",
    "log_gamma",
    "beta",
    "log_beta",
    "inc_beta",
    "reg_inc_beta",
    "inc_beta_result",
    "hyp2f1_halfint",
    "hyp2f1_halfint_result",
    "inc_gamma_upper",
    "inc_gamma_upper_result",
    "double_factorial",
    "density_is_radial",
    "density_value",
    "density_radial_value",
    "density_bound",
    "density_mass",
    "sphere_area",
]

_EPS = 2.220446049250313e-16


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
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")


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
        out = np.where(idx < len(dens), dens[np.minimum(idx, len(dens) - 1)], 0.0)
        return out
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
        out = np.ones(points.shape[:-1])
        for i, e in enumerate(model.exponents):
            if e:
                out = out * points[..., i] ** e
        return out
    if isinstance(model, GeneralCartesian):
        return np.asarray(model.func(points), dtype=float)
    r = np.sqrt(np.sum(points * points, axis=-1))
    return density_radial_value(model, r, geometry)


def density_bound(model: DensityModel, geometry: BallGeometry) -> float:
    """Upper bound on the unnormalized density over the ball, used as the
    rejection-sampling envelope of the models that have no direct sampler."""
    R = geometry.radius
    if isinstance(model, ParabolicRadial):
        return 1.0
    if isinstance(model, GeneralCartesian):
        return float(model.bound)
    if isinstance(model, RadialPolynomial):
        # Grid maximum with a safety margin; every accepted candidate is also
        # checked against the bound at sampling time.
        r = np.linspace(0.0, R, 4097)
        vals = density_radial_value(model, r)
        if np.any(vals < -1e-12 * max(1.0, float(np.max(np.abs(vals))))):
            raise InvalidDensityError("radial polynomial is negative inside the ball")
        return float(np.max(vals)) * (1.0 + 1e-9) + 1e-300
    raise InvalidDensityError(f"no bound rule for {type(model).__name__}")


def sphere_area(n: int) -> float:
    """Surface area |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2) of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.exp(math.lgamma(n / 2.0))


def density_mass(model: DensityModel, geometry: BallGeometry) -> float:
    """Exact mass Int_B rho of the unnormalized density over the ball: 1-D
    polynomial integrals for radial models; for monomials Folland's
    Int_{S^(n-1)} prod |x_i|^(e_i) = 2 prod Gamma(b_i) / Gamma(sum b_i),
    b_i = (e_i + 1)/2, times R^(n+|e|)/(n+|e|)."""
    n, R = geometry.dimension, geometry.radius
    area = sphere_area(n)
    if isinstance(model, Uniform):
        return area * R ** n / n
    if isinstance(model, RadialPolynomial):
        return area * sum(c * R ** (n + k) / (n + k) for k, c in enumerate(model.coefficients))
    if isinstance(model, ParabolicRadial):
        return area * R ** n * (1.0 / n - model.alpha / (n + 2.0))
    if isinstance(model, MultiShell):
        edges = [0.0] + [min(float(r), R) ** n for r in model.radii]
        return area / n * sum(float(d) * (b - a)
                              for d, a, b in zip(model.densities, edges, edges[1:]))
    if isinstance(model, CartesianMonomial):
        if len(model.exponents) != n:
            raise InvalidDensityError("exponent count does not match point dimension")
        b = [(e + 1) / 2.0 for e in model.exponents]
        etot = sum(model.exponents)
        log_sphere = math.log(2.0) + sum(math.lgamma(v) for v in b) - math.lgamma(sum(b))
        return math.exp(log_sphere) * R ** (n + etot) / (n + etot)
    raise UnsupportedError(f"no closed-form mass for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialFunctionResult:
    """Value plus a conservative absolute-error upper bound."""
    value: float
    error: float = 0.0


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
    half-integer arguments up to n ~ 50 do not overflow."""
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


def _betacf(a: float, b: float, x: float) -> tuple:
    """Continued fraction for the regularized incomplete beta (Lentz's method).

    Returns (cf, last_delta) where last_delta tracks the final relative step
    for error estimation.
    """
    MAXIT = 300
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    delta = 0.0
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h, abs(delta - 1.0)
    raise PrecisionError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def inc_beta_result(x: float, p: float, q: float) -> SpecialFunctionResult:
    """Incomplete beta B_x(p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt with error bound."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"inc_beta requires p, q > 0, got ({p!r}, {q!r})")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"inc_beta requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return SpecialFunctionResult(0.0, 0.0)
    B = beta(p, q)
    lg_sum = abs(math.lgamma(p)) + abs(math.lgamma(q)) + abs(math.lgamma(p + q))
    if x == 1.0:
        return SpecialFunctionResult(B, (lg_sum + 8.0) * _EPS * B)
    lnfront = p * math.log(x) + q * math.log1p(-x) - log_beta(p, q)
    front = math.exp(lnfront)
    # symmetry switch keeps the continued fraction in its fast-converging regime
    if x < (p + 1.0) / (p + q + 2.0):
        cf, delta = _betacf(p, q, x)
        term = front * cf / p
        ix = term
    else:
        cf, delta = _betacf(q, p, 1.0 - x)
        term = front * cf / q
        ix = 1.0 - term
    # the exp(lnfront) path loses |lnfront| ulps, the continued fraction a few
    # more, and B itself carries the log-gamma magnitudes as ulps
    err_ix = ((abs(lnfront) + 30.0) * _EPS + 4.0 * delta) * abs(term) + 2.0 * _EPS
    value = ix * B
    return SpecialFunctionResult(value, err_ix * B + (lg_sum + 8.0) * _EPS * abs(value) + 1e-300)


def inc_beta(x: float, p: float, q: float) -> float:
    return inc_beta_result(x, p, q).value


def reg_inc_beta(x: float, p: float, q: float) -> float:
    """Regularized incomplete beta I_x(p, q) = B_x(p, q) / B(p, q)."""
    return inc_beta_result(x, p, q).value / beta(p, q)


def hyp2f1_halfint_result(n: int, x: float) -> SpecialFunctionResult:
    """2F1(1/2, (1-n)/2; 3/2; x) for integer n >= 1 and x in [0, 1].

    For odd n the series terminates and is summed exactly. For even n the
    series is summed directly for x <= 3/4; near x = 1 it is evaluated
    through the exact antiderivative identity
    2F1(1/2, (1-n)/2; 3/2; x) = B_x(1/2, (n+1)/2) / (2 sqrt(x)),
    which keeps full accuracy where the raw series converges too slowly.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return SpecialFunctionResult(1.0, 0.0)
    a, b, c = 0.5, (1.0 - n) / 2.0, 1.5
    if n % 2 == 1:
        total = term = 1.0
        for k in range((n - 1) // 2):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
            total += term
        return SpecialFunctionResult(total, 8.0 * _EPS * (abs(total) + 1.0))
    if x <= 0.75:
        total = term = 1.0
        k = 0
        while True:
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
            total += term
            k += 1
            if abs(term) < 1e-17 * abs(total) or k > 400:
                break
        return SpecialFunctionResult(total, (8.0 * _EPS * abs(total) + 2.0 * abs(term)))
    r = inc_beta_result(x, 0.5, (n + 1) / 2.0)
    sx = 2.0 * math.sqrt(x)
    return SpecialFunctionResult(r.value / sx, r.error / sx + 4.0 * _EPS * abs(r.value) / sx)


def hyp2f1_halfint(n: int, x: float) -> float:
    return hyp2f1_halfint_result(n, x).value


_EULER_GAMMA = 0.5772156649015328606


def _exp1(x: float) -> tuple:
    """Exponential integral E_1(x) = Gamma(0, x) for x > 0; returns (value, err)."""
    if x <= 1.0:
        # E_1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
            if abs(term / k) < 1e-18 * max(abs(total), 1e-30):
                break
        return total, 8.0 * _EPS * (abs(total) + 1.0)
    # Lentz continued fraction: E_1(x) = e^{-x} / (x + 1/(1 + 1/(x + 2/(1 + ...))))
    tiny = 1e-300
    b0 = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b0
    h = d
    for i in range(1, 200):
        an = -i * i
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            value = h * math.exp(-x)
            return value, (20.0 * _EPS + 4.0 * abs(delta - 1.0)) * abs(value)
    raise PrecisionError(f"E1 continued fraction failed for x={x}")


def inc_gamma_upper_result(a: float, b: float) -> SpecialFunctionResult:
    """Upper incomplete gamma Gamma(a, b) = int_b^inf t^(a-1) e^(-t) dt, a >= 0, b > 0."""
    if not (b > 0.0):
        raise DomainError(f"inc_gamma_upper requires b > 0, got {b!r}")
    if a < 0.0:
        raise DomainError(f"inc_gamma_upper requires a >= 0, got {a!r}")
    if a == 0.0:
        v, e = _exp1(b)
        return SpecialFunctionResult(v, e)
    if b < a + 1.0:
        # series for the lower regularized gamma P(a, b), then complement
        ap = a
        total = term = 1.0 / a
        for _ in range(500):
            ap += 1.0
            term *= b / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        p = total * math.exp(-b + a * math.log(b) - math.lgamma(a))
        gamma_a = math.exp(math.lgamma(a))
        value = gamma_a * (1.0 - p)
        return SpecialFunctionResult(value, 30.0 * _EPS * gamma_a + 1e-300)
    # Lentz continued fraction for Gamma(a, b), b >= a + 1
    tiny = 1e-300
    b0 = b + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b0
    h = d
    for i in range(1, 300):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            value = h * math.exp(-b + a * math.log(b))
            return SpecialFunctionResult(value, (30.0 * _EPS + 4.0 * abs(delta - 1.0)) * abs(value) + 1e-300)
    raise PrecisionError(f"incomplete gamma continued fraction failed for a={a}, b={b}")


def inc_gamma_upper(a: float, b: float) -> float:
    return inc_gamma_upper_result(a, b).value


# ---------------------------------------------------------------------------
# Analytic continuation of B and B_x in the second parameter (q <= 0).
# Needed by truncated-support (hard-core) moments where the closed form
# evaluates B(p, q) at q = (n + 1 + m)/2 < 0.
# ---------------------------------------------------------------------------

def beta_ext(p: float, q: float) -> float:
    """B(p, q) continued to q < 0 via B(p, q) = B(p, q+1) (p+q)/q.

    q may not be a non-positive integer (a genuine pole of the beta function).
    """
    if p <= 0.0:
        raise DomainError(f"beta_ext requires p > 0, got {p!r}")
    if q > 0.0:
        return beta(p, q)
    if q == int(q):
        raise DomainError(f"beta has a pole at non-positive integer q={q!r}")
    out = 1.0
    while q < 0.0:
        out *= (p + q) / q
        q += 1.0
    return out * beta(p, q)


def inc_beta_ext(x: float, p: float, q: float) -> float:
    """B_x(p, q) continued to p <= 0 (p not a non-positive integer), 0 <= x < 1.

    Uses the parameter-raising recurrence
        B_x(p, q) = [x^p (1-x)^q + (p+q) B_x(p+1, q)] / p
    to lift the first parameter back into the classical region. The integral
    itself diverges at t = 0 for p <= 0; the continued value is the finite
    part that makes truncated-support moment differences exact.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"inc_beta_ext requires x in [0, 1), got {x!r}")
    if p > 0.0:
        return inc_beta(x, p, q)
    if p == int(p):
        raise DomainError(f"incomplete beta continuation has a pole at p={p!r}")
    if x == 0.0:
        return 0.0
    # unrolled from the innermost term, so deep orders need no recursion
    steps = []
    while p <= 0.0:
        steps.append(p)
        p += 1.0
    out = inc_beta(x, p, q)
    for p in reversed(steps):
        out = (x ** p * (1.0 - x) ** q + (p + q) * out) / p
    return out
