"""Pair-distance PDF P_n(s) for the uniform n-ball, in every representation.

The default evaluation path is the regularized incomplete beta form

    P_n(s) = n s^(n-1) / R^n * I_x((n+1)/2, 1/2),   x = 1 - s^2/(4R^2),

evaluated on whole arrays of s by ``scipy.special`` from the exact pair
(x, y = s^2/4R^2), which keeps full accuracy at both ends of the support.
The other representations (integral, finite parity series, infinite series,
generating functions, hypergeometric) are provided both as cross-checks and
because each is the natural starting point for a different derivation.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction

import numpy as np
from scipy import special
from scipy.integrate import quad

from . import _series
from .core import (
    BallGeometry,
    DomainError,
    InvalidRepresentationError,
    DivergentMomentError,
    PrecisionError,
    _as_support,
    _betacf,
    beta,
    double_factorial,
    inc_beta,
    hyp2f1_halfint,
)

__all__ = [
    "Representation",
    "pdf_uniform",
    "pdf_uniform_repr",
    "pdf_uniform_derivatives",
    "overlap_kernels",
    "q_kernel_quadrature",
    "cumulative_c",
    "normalization_constant",
    "odd_series_coefficients",
    "endpoint_properties",
    "recursion_residuals",
    "generating_series",
]


class Representation(enum.Enum):
    INTEGRAL = "integral"
    REG_INC_BETA = "reg_inc_beta"
    INC_BETA = "inc_beta"
    ODD_SERIES = "odd_series"
    EVEN_SERIES = "even_series"
    INFINITE_SERIES = "infinite_series"
    GENERATING_I = "generating_i"
    GENERATING_II = "generating_ii"
    HYPERGEOMETRIC = "hypergeometric"


def _x_of(geometry: BallGeometry, s: float) -> float:
    # 1 - s^2/4R^2 in product form to avoid cancellation near s = 2R
    t = s / geometry.diameter
    return (1.0 - t) * (1.0 + t)


def normalization_constant(geometry: BallGeometry) -> float:
    """C(2R; 0, n) = (1/2n) B((n+1)/2, 1/2) R^(2n), the same for both parities."""
    n, R = geometry.dimension, geometry.radius
    return beta((n + 1) / 2.0, 0.5) / (2.0 * n) * R ** (2 * n)


_TINY = np.finfo(float).tiny


def _log_reg_inc_beta_tail(a: float, x: np.ndarray) -> np.ndarray:
    """log I_x(a, 1/2) = a log x + log(1-x)/2 - log B(a, 1/2) - log a + log cf
    for x where I_x itself underflows (small x, so the continued fraction
    converges fast)."""
    cf = np.array([_betacf(a, 0.5, v)[0] for v in x.tolist()])
    return a * np.log(x) + 0.5 * np.log1p(-x) - special.betaln(a, 0.5) - math.log(a) + np.log(cf)


def pdf_uniform(geometry: BallGeometry, s):
    """P_n(s) through the regularized incomplete beta, for a float or an
    ndarray of s (a float in gives a float out, an array the same shape).

    With t = s/2R, both x = (1-t)(1+t) and its complement y = t^2 are exact,
    and I_x((n+1)/2, 1/2) is betaincc(1/2, (n+1)/2, y) where y <= x and
    betainc((n+1)/2, 1/2, x) where x < y, so scipy never forms 1 - x itself
    (the (x, y) pair of TOMS 708). Where I_x underflows, and for n > 1024,
    whose s^(n-1) may overflow, the product is taken in log space. Within
    x < 1e-12 of s = 2R the exact limit 0 is returned.
    """
    s = _as_support(geometry, s)
    n, R = geometry.dimension, geometry.radius
    a = (n + 1) / 2.0
    t = s / geometry.diameter
    x, y = (1.0 - t) * (1.0 + t), t * t
    near = y <= x
    ix = special.betaincc(0.5, a, y, where=near, out=np.empty_like(s))
    special.betainc(a, 0.5, x, where=~near, out=ix)
    inner = x >= 1e-12
    logs = inner & (s > 0.0) & ((ix < _TINY) | (n > 1024))
    direct = inner & ~logs
    out = np.zeros_like(s)
    out[direct] = n / R * ((s[direct] / R) ** (n - 1) * ix[direct])
    if np.any(logs):
        log_ix = np.log(np.maximum(ix[logs], _TINY))
        under = ix[logs] < _TINY
        log_ix[under] = _log_reg_inc_beta_tail(a, x[logs][under])
        out[logs] = n / R * np.exp((n - 1) * np.log(s[logs] / R) + log_ix)
    return out if out.ndim else float(out)


def q_kernel_quadrature(geometry: BallGeometry, s: float) -> float:
    """Q_n(s) = int_{s/2}^R (R^2 - x^2)^((n-1)/2) dx by adaptive quadrature.

    The substitution x = R sin(u) removes the square-root derivative
    singularity of the integrand at x = R.
    """
    _as_support(geometry, s)
    n, R = geometry.dimension, geometry.radius
    lo = math.asin(min(s / (2.0 * R), 1.0))
    val, _ = quad(lambda u: math.cos(u) ** n, lo, math.pi / 2.0, epsabs=1e-11, limit=200)
    return R ** n * val


def overlap_kernels(geometry: BallGeometry, s: float) -> tuple:
    """(Q_n(s), T_n(s)) from the closed incomplete-beta form
    Q_n = (R^n / 2) B_x((n+1)/2, 1/2), T_n = s^(n-1) Q_n."""
    _as_support(geometry, s)
    n, R = geometry.dimension, geometry.radius
    x = _x_of(geometry, s)
    q = 0.0 if x <= 0.0 else R ** n / 2.0 * inc_beta(x, (n + 1) / 2.0, 0.5)
    return q, s ** (n - 1) * q


def cumulative_c(geometry: BallGeometry, a: float, m: int) -> float:
    """C(a; m, n) = int_0^a s^(m+n-1) Q_n(s) ds in closed form.

    The closed form combines a complete beta term with two incomplete beta
    terms at x = (a/2R)^2; C(2R; 0, n) reduces to the normalization constant.
    """
    n, R = geometry.dimension, geometry.radius
    if not (0.0 <= a <= geometry.diameter):
        raise DomainError(f"a={a!r} outside [0, {geometry.diameter}]")
    if m + n <= 0:
        raise DivergentMomentError(f"C(a; m, n) diverges at s=0 for m+n = {m + n} <= 0")
    if a == 0.0:
        return 0.0
    p = (n + 1) / 2.0
    x = (a / (2.0 * R)) ** 2
    term_complete = a ** (m + n) * (beta(0.5, p) - inc_beta(min(x, 1.0), 0.5, p))
    term_inc = (2.0 * R) ** (m + n) * inc_beta(min(x, 1.0), p + m / 2.0, p)
    return R ** n / (2.0 * (m + n)) * (term_complete + term_inc)


# ---------------------------------------------------------------------------
# Finite parity series
# ---------------------------------------------------------------------------

def odd_series_coefficients(n: int) -> dict:
    """Exact rational coefficients {power: Fraction} of P_n(s) at R = 1, odd n.

    Expands the terminating odd-n series
        P_n = n (n!!/(n-1)!!) s^(n-1) sum_k (-1)^k/(2k+1) C((n-1)/2, k)
              [1 - (s/2)^(2k+1)]
    so, e.g., n=3 gives {2: 3, 3: -9/4, 5: 3/16}.
    """
    if n % 2 == 0 or n < 1:
        raise InvalidRepresentationError(f"odd series needs odd n, got {n}")
    half = (n - 1) // 2
    dfr = Fraction(int(double_factorial(n)), int(double_factorial(n - 1)))
    lead = Fraction(0)
    coeffs = {}
    for k in range(half + 1):
        ck = Fraction(math.comb(half, k)) * (-1) ** k / (2 * k + 1)
        lead += ck
        coeffs[n + 2 * k] = -n * dfr * ck / Fraction(2) ** (2 * k + 1)
    coeffs[n - 1] = n * dfr * lead
    return {p: c for p, c in sorted(coeffs.items()) if c != 0}


def _odd_series_value(n: int, R: float, s: float) -> float:
    return sum(float(c) * s ** p / R ** (p + 1) for p, c in odd_series_coefficients(n).items())


def _even_series_value(n: int, R: float, s: float) -> float:
    if n % 2 == 1:
        raise InvalidRepresentationError(f"even series needs even n, got {n}")
    acos_part = 2.0 / math.pi * math.acos(min(s / (2.0 * R), 1.0))
    tail = 0.0
    w2 = R * R - s * s / 4.0
    for i in range(1, n // 2 + 1):
        ratio = double_factorial(n - 2 * i) / double_factorial(n - 2 * i + 1)
        tail += ratio * w2 ** ((n - 2 * i + 1) / 2.0) * R ** (2 * i - 2 - n)
    return n * s ** (n - 1) / R ** n * (acos_part - s / math.pi * tail)


def _infinite_series_value(n: int, R: float, s: float) -> float:
    """Binomial-coefficient infinite series for Q_n, adaptively truncated.

    The s-independent part of the sum telescopes to the complete beta value
    B(1/2, (n+1)/2)/2, leaving a remainder series in t = s/2R that converges
    geometrically in t^2; for odd n the series terminates on its own.
    """
    alpha = (n - 1) / 2.0
    t = s / (2.0 * R)
    const_part = beta(0.5, alpha + 1.0) / 2.0
    coeff = 1.0  # (-1)^i C(alpha, i)
    tail = 0.0
    tp = t
    for i in range(200000):
        tail += coeff / (2 * i + 1) * tp
        coeff *= (i - alpha) / (i + 1.0)
        tp *= t * t
        if coeff == 0.0 or (i > 4 and abs(coeff * tp) < 1e-17):
            break
    q_over_rn = const_part - tail
    return s ** (n - 1) * R ** n * q_over_rn / normalization_constant(
        BallGeometry(n, R)
    )


def _hypergeometric_value(n: int, R: float, s: float) -> float:
    b = beta((n + 1) / 2.0, 0.5)
    bracket = R * hyp2f1_halfint(n, 1.0) - s / 2.0 * hyp2f1_halfint(n, (s / (2.0 * R)) ** 2)
    return 2.0 * n / b * s ** (n - 1) / R ** (n + 1) * bracket


def pdf_uniform_repr(geometry: BallGeometry, s: float, representation: Representation) -> float:
    """P_n(s) through any single representation; parity mismatches raise."""
    _as_support(geometry, s)
    n, R = geometry.dimension, geometry.radius
    rep = Representation(representation)
    if rep is Representation.ODD_SERIES and n % 2 == 0:
        raise InvalidRepresentationError("odd series is only valid for odd n")
    if rep is Representation.EVEN_SERIES and n % 2 == 1:
        raise InvalidRepresentationError("even series is only valid for even n")
    if s == 0.0:
        return 1.0 / R if n == 1 else 0.0

    if rep is Representation.REG_INC_BETA:
        return pdf_uniform(geometry, s)
    if rep is Representation.INC_BETA:
        x = _x_of(geometry, s)
        bx = 0.0 if x <= 0.0 else inc_beta(x, (n + 1) / 2.0, 0.5)
        return n * s ** (n - 1) * bx / (beta((n + 1) / 2.0, 0.5) * R ** n)
    if rep is Representation.INTEGRAL:
        return s ** (n - 1) * q_kernel_quadrature(geometry, s) / normalization_constant(geometry)
    if rep is Representation.ODD_SERIES:
        return _odd_series_value(n, R, s)
    if rep is Representation.EVEN_SERIES:
        return _even_series_value(n, R, s)
    if rep is Representation.INFINITE_SERIES:
        return _infinite_series_value(n, R, s)
    if rep is Representation.GENERATING_I:
        t_n = generating_series("F2", n, s, geometry)[n]
        return t_n / normalization_constant(geometry)
    if rep is Representation.GENERATING_II:
        q_n = generating_series("F1", n, s, geometry)[n]
        return s ** (n - 1) * q_n / normalization_constant(geometry)
    if rep is Representation.HYPERGEOMETRIC:
        return _hypergeometric_value(n, R, s)
    raise InvalidRepresentationError(f"unknown representation {representation!r}")


# ---------------------------------------------------------------------------
# Endpoint table and derivative identities
# ---------------------------------------------------------------------------

def endpoint_properties(geometry: BallGeometry) -> dict:
    """Exact endpoint values of P_n and P_n' at s = 0 and s = 2R."""
    n, R = geometry.dimension, geometry.radius
    if n == 1:
        return {"P(0)": 1.0 / R, "P(2R)": 0.0,
                "P'(0)": -0.5 / R ** 2, "P'(2R)": -0.5 / R ** 2}
    if n == 2:
        return {"P(0)": 0.0, "P(2R)": 0.0, "P'(0)": 2.0 / R ** 2, "P'(2R)": 0.0}
    return {"P(0)": 0.0, "P(2R)": 0.0, "P'(0)": 0.0, "P'(2R)": 0.0}


def pdf_uniform_derivatives(geometry: BallGeometry, s: float) -> tuple:
    """(P_n, P_n', P_n'') at interior s, with the derivatives taken from the
    exact first-derivative identity applied recursively (no finite differences):

        P' = (n-1)/s P - n/B * s^(n-1)/R^(n+1) * x^((n-1)/2)
        P'' = -n(n-1)/s^2 P + 2(n-1)/s P' + n(n-1)/(4B) s^n/R^(n+3) x^((n-3)/2)
    """
    n, R = geometry.dimension, geometry.radius
    if not (0.0 < s < geometry.diameter):
        raise DomainError("derivatives are defined on the open interval (0, 2R)")
    x = _x_of(geometry, s)
    b = beta((n + 1) / 2.0, 0.5)
    p = pdf_uniform(geometry, s)
    dp = (n - 1) / s * p - n / b * s ** (n - 1) / R ** (n + 1) * x ** ((n - 1) / 2.0)
    d2p = (-n * (n - 1) / s ** 2 * p + 2.0 * (n - 1) / s * dp
           + n * (n - 1) / (4.0 * b) * s ** n / R ** (n + 3) * x ** ((n - 3) / 2.0))
    return p, dp, d2p


def _parity_series_derivatives(n: int, R: float, s: float) -> tuple:
    """(P, P', P'') differentiated analytically from the finite parity series.

    Independent arithmetic path from the incomplete-beta route, used to make
    the first/second derivative identity residuals non-trivial. Odd n is an
    exact polynomial; even n is A s^(n-1) acos(s/2R) + W g(s) with polynomial
    g and W = sqrt(R^2 - s^2/4).
    """
    if n % 2 == 1:
        coeffs = odd_series_coefficients(n)
        p = sum(float(c) * s ** k / R ** (k + 1) for k, c in coeffs.items())
        dp = sum(float(c) * k * s ** (k - 1) / R ** (k + 1) for k, c in coeffs.items())
        d2p = sum(float(c) * k * (k - 1) * s ** (k - 2) / R ** (k + 1)
                  for k, c in coeffs.items() if k >= 2)
        return p, dp, d2p
    # even n: build g(s) exactly, then differentiate the A/W decomposition
    a_lead = 2.0 * n / (math.pi * R ** n)
    g = np.polynomial.Polynomial([0.0])
    w2 = np.polynomial.Polynomial([R * R, 0.0, -0.25])
    for i in range(1, n // 2 + 1):
        d_i = double_factorial(n - 2 * i) / double_factorial(n - 2 * i + 1)
        g = g + d_i * R ** (2 * i - 2 - 2 * n) * w2 ** ((n - 2 * i) // 2) * np.polynomial.Polynomial([0.0] * n + [1.0])
    g = g * (-n / math.pi)
    dg, d2g = g.deriv(), g.deriv(2)
    w = math.sqrt(R * R - s * s / 4.0)
    ac = math.acos(s / (2.0 * R))
    gs, dgs, d2gs = g(s), dg(s), d2g(s)
    p = a_lead * s ** (n - 1) * ac + w * gs
    dp = (a_lead * (n - 1) * s ** (n - 2) * ac - a_lead * s ** (n - 1) / (2.0 * w)
          + w * dgs - s * gs / (4.0 * w))
    d2p = (a_lead * (n - 1) * (n - 2) * s ** (n - 3) * ac
           - a_lead * (n - 1) * s ** (n - 2) / w
           - a_lead * s ** n / (8.0 * w ** 3)
           + w * d2gs - (gs + 2.0 * s * dgs) / (4.0 * w)
           - s * s * gs / (16.0 * w ** 3))
    return p, dp, d2p


def recursion_residuals(geometry: BallGeometry, s: float) -> dict:
    """Left-minus-right residuals of the derivative identities, the two
    second-order ODEs, the parity and beta-form n -> n+2 ladders, and the
    three-term relations, all evaluated with analytic closed forms.

    The second ODE is evaluated with -P'/s in its second bracket; the +P'/s
    variant seen in some tabulations is inconsistent with the derivative
    identities (its residual is O(1)) and violates the first ODE chain.
    """
    n, R = geometry.dimension, geometry.radius
    if not (0.0 < s < geometry.diameter):
        raise DomainError("recursion residuals need interior s")
    x = _x_of(geometry, s)
    b_n = beta((n + 1) / 2.0, 0.5)
    p, dp, d2p = pdf_uniform_derivatives(geometry, s)
    p_ind, dp_ind, d2p_ind = _parity_series_derivatives(n, R, s)

    res = {}
    res["first_derivative_identity"] = dp_ind - (
        (n - 1) / s * p - n / b_n * s ** (n - 1) / R ** (n + 1) * x ** ((n - 1) / 2.0))
    res["second_derivative_identity"] = d2p_ind - (
        -n * (n - 1) / s ** 2 * p + 2.0 * (n - 1) / s * dp
        + n * (n - 1) / (4.0 * b_n) * s ** n / R ** (n + 3) * x ** ((n - 3) / 2.0))
    res["ode_first"] = (x * d2p - (n - 1) / s * (2.0 - 0.75 * s * s / R ** 2) * dp
                        + (n - 1) / s ** 2 * (n - (2 * n - 1) / 4.0 * s * s / R ** 2) * p)
    res["ode_second"] = (x * (d2p - 2.0 * (n - 1) / s * dp + n * (n - 1) / s ** 2 * p)
                         - (n - 1) * (s * s / (4.0 * R ** 2)) * (-dp / s + (n - 1) / s ** 2 * p))

    p_up = pdf_uniform(BallGeometry(n + 2, R), s)
    alg_up = s ** (n + 2) / R ** (n + 3) * x ** ((n + 1) / 2.0)
    parity_coeff = (1.0 / math.pi if n % 2 == 0 else 0.5) * (
        double_factorial(n + 2) / double_factorial(n + 1))
    res["ladder_parity"] = p_up - ((n + 2.0) / n * s * s / R ** 2 * p - parity_coeff * alg_up)
    res["ladder_beta"] = p_up - ((n + 2.0) / n * s * s / R ** 2 * p
                                 - alg_up / beta((n + 3) / 2.0, 0.5))

    if n >= 3:
        p_dn = pdf_uniform(BallGeometry(n - 2, R), s)
        alg_mid = (s ** n / R ** (n + 1) * (1.0 + n * s * s / (4.0 * R ** 2))
                   * x ** ((n - 1) / 2.0))
        mid_parity = (1.0 / math.pi if n % 2 == 0 else 0.5) * (
            double_factorial(n) / double_factorial(n + 1))
        rhs = (n / (n + 2.0) * R ** 2 / s ** 2 * p_up
               + n / (n - 2.0) * s * s / R ** 2 * p_dn)
        res["three_term_parity"] = 2.0 * p - (rhs - mid_parity * alg_mid)
        res["three_term_beta"] = 2.0 * p - (
            rhs - alg_mid / ((n + 2.0) * beta((n + 3) / 2.0, 0.5)))
    return res


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

_GENERATING_KINDS = ("F", "F1", "F2")


def generating_series(kind: str, order: int, arg: float, geometry: BallGeometry) -> np.ndarray:
    """First order+1 Taylor coefficients in h at h = 0 of the generating
    function ``kind``.

    F1(h, s) generates Q_k(s) (coefficient k), F2(h, s) generates
    T_k(s) = s^(k-1) Q_k(s), and F(h, x) generates the incomplete beta family
    B_x((k+1)/2, 1/2). ``arg`` is s for F1/F2 and x in [0, 1] for F.

    Extraction uses truncated power-series arithmetic; orders above 60 are
    refused because double precision cannot support the coefficient growth.
    """
    if kind not in _GENERATING_KINDS:
        raise DomainError(f"kind must be one of {_GENERATING_KINDS}, got {kind!r}")
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > 60:
        raise PrecisionError("series extraction beyond order 60 is not stable in double precision")
    R = geometry.radius
    k = np.arange(order + 1)
    if kind == "F":
        if not (0.0 <= arg <= 1.0):
            raise DomainError(f"F needs x in [0, 1], got {arg!r}")
        s_over_r = 2.0 * math.sqrt(max(1.0 - arg, 0.0))
        return 2.0 * _series.overlap_generating_coeffs(order, s_over_r)
    _as_support(geometry, arg)
    c = _series.overlap_generating_coeffs(order, arg / R)
    if kind == "F1":
        return c * R ** k.astype(float)
    if arg == 0.0:
        raise DomainError("F2 requires s > 0 (the generating function carries a 1/s prefactor)")
    return c * (R * arg) ** k.astype(float) / arg
