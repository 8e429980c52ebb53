"""Pair-distance PDF P_n(s) for the uniform n-ball, in every representation.

The default evaluation path is the regularized incomplete beta form

    P_n(s) = n s^(n-1) / R^n * I_x((n+1)/2, 1/2),   x = 1 - s^2/(4R^2),

evaluated on whole arrays of s from the exact pair (x, y = s^2/4R^2), which
keeps full accuracy at both ends of the support: ``scipy.special`` below the
median of Beta(1/2, (n+1)/2) in y and for x < 1/2, and between them, for
n >= 9, an incomplete-gamma series on x as a double-double (``_cap_beta``).
In odd dimensions up to 9 it is the paper's terminating odd-n polynomial
instead, from exact rational coefficients.
The other representations (integral, finite parity series, infinite series,
generating functions, hypergeometric) are provided both as cross-checks and
because each is the natural starting point for a different derivation.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special

from . import _series
from .core import (
    BallGeometry,
    DomainError,
    InvalidRepresentationError,
    DivergentMomentError,
    PrecisionError,
    _as_support,
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


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on the first call: importing
    scipy.integrate costs about 0.2 s, which a run that never integrates
    numerically does not pay."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


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
    # 1 - s^2/4R^2 from the exact pair 2R -/+ s, so it keeps its digits near s = 2R
    d = geometry.diameter
    return ((d - s) / d) * ((d + s) / d)


def normalization_constant(geometry: BallGeometry) -> float:
    """C(2R; 0, n) = (1/2n) B((n+1)/2, 1/2) R^(2n), the same for both parities."""
    n, R = geometry.dimension, geometry.radius
    return beta((n + 1) / 2.0, 0.5) / (2.0 * n) * R ** (2 * n)


_TINY = np.finfo(float).tiny


def _log_reg_inc_beta_tail(a: float, x: np.ndarray) -> np.ndarray:
    """log I_x(a, 1/2) for x where I_x itself underflows, from DLMF 8.17.8:
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x)."""
    return (a * np.log(x) + 0.5 * np.log1p(-x) - special.betaln(a, 0.5) - math.log(a)
            + np.log(special.hyp2f1(a + 0.5, 1.0, a + 1.0, x)))


# I_x(a, 1/2) between the median of Beta(1/2, a) in y and x = 1/2 comes, for
# a >= _SERIES_MIN_A, from the incomplete-gamma series of ``_band_series``:
# _SERIES_TERMS terms at a >= _SERIES_A, below which a is first stepped up to
# _SERIES_A. Against 50-digit mpmath the series is within 4 * 2^-52 relative
# for every a from 5 to 1000, and 16 terms already reach that; betaincc is
# within 2^-53 but 40 times slower. Below _SERIES_MIN_A betaincc stays: the
# cap sums of thin shells in low dimensions cancel up to 1e10-fold, and with
# the series their error grew up to 3-fold at n = 4.
_SERIES_MIN_A = 5.0
_SERIES_A = 15.0
_SERIES_TERMS = 18
# Exact rationals up to here; beyond it the central binomial ratio comes from
# its asymptotic series, whose first omitted term is below 2^-90 there.
_EXACT_BINOMIAL_MAX_M = 4096
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's split into two 26-bit halves


def _bernoulli(count: int) -> list:
    """B_0 .. B_count as Fractions, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def _phi_coefficients(count: int) -> list:
    """c_0 .. c_count of phi(tau) = (tau / (1 - exp(-tau)))^(1/2) = sum c_k tau^k,
    exact: tau / (1 - exp(-tau)) = sum_m (-1)^m B_m tau^m / m!, and c is its
    square root, c_k = (b_k - sum_(0<i<k) c_i c_(k-i)) / 2."""
    b = [(-1) ** m * bm / math.factorial(m) for m, bm in enumerate(_bernoulli(count))]
    c = [Fraction(1)]
    for k in range(1, count + 1):
        c.append((b[k] - sum(c[i] * c[k - i] for i in range(1, k))) / 2)
    return c


_PHI = tuple(float(c) for c in _phi_coefficients(_SERIES_TERMS))


@lru_cache(maxsize=64)
def _inverse_beta_half(a: float) -> float:
    """1 / B(a, 1/2) for a in N/2, from rho = C(2m, m) / 4^m =
    Gamma(m + 1/2) / (sqrt(pi) m!): B(m + 1/2, 1/2) = pi rho and
    B(m, 1/2) = 1 / (m rho) = 2^(2m-1) ((m-1)!)^2 / (2m-1)!. rho is correctly
    rounded from exact integers up to m = _EXACT_BINOMIAL_MAX_M, and beyond it
    is exp(-1/8m + 1/192m^3 - 1/640m^5) / sqrt(pi m) (the Bernoulli-polynomial
    series of ln Gamma), within 2 ulp."""
    m = int(a)
    if m <= _EXACT_BINOMIAL_MAX_M:
        rho = float(Fraction(math.comb(2 * m, m), 4 ** m))
    else:
        w = 1.0 / m
        rho = (math.exp(w * (-1.0 / 8.0 + w * w * (1.0 / 192.0 - w * w / 640.0)))
               / math.sqrt(math.pi * m))
    return m * rho if a == m else 1.0 / (math.pi * rho)


@lru_cache(maxsize=64)
def _beta_median(a: float) -> float:
    """The median of Beta(1/2, a)."""
    return float(special.betaincinv(0.5, a, 0.5))


@lru_cache(maxsize=64)
def _series_tables(a: float) -> tuple:
    """The constants of ``_band_series`` at a: (steps, a + steps, Horner
    coefficients of the polynomial in u, the erfcx weight, the step weights,
    1 / B(a, 1/2))."""
    steps = max(0, math.ceil(_SERIES_A - a))
    top = a + steps
    # the sum over k of c_k J_k, with J_k = ((k - 1/2) J_(k-1) + u^(k-1/2)) / top,
    # folds into d_0 J_0 + sqrt(u) / top * sum_(m>=1) d_m u^(m-1), where
    # d_m = c_m + (m + 1/2) / top * d_(m+1)
    d = [0.0] * (_SERIES_TERMS + 1)
    d[-1] = _PHI[-1]
    for m in range(_SERIES_TERMS - 1, -1, -1):
        d[m] = _PHI[m] + (m + 0.5) / top * d[m + 1]
    # B(a, 1/2) / B(a + j, 1/2) = prod_(i<j) (a + i + 1/2) / (a + i), exact
    ratio, weights = Fraction(1), []
    for j in range(steps):
        aj = Fraction(a) + j
        weights.append(float(ratio / aj))
        ratio *= (aj + Fraction(1, 2)) / aj
    ratio = float(ratio)
    poly = tuple(ratio * dm / top for dm in d[1:])
    erfcx_weight = ratio * d[0] * math.sqrt(math.pi / top)
    return steps, top, poly, erfcx_weight, tuple(weights), _inverse_beta_half(a)


def _split(v):
    """Dekker's split of v into two 26-bit halves, whose products are exact."""
    c = _SPLITTER * v
    hi = c - (c - v)
    return hi, v - hi


def _quotient(v: np.ndarray, r: float) -> tuple:
    """(q, q_lo) with q = v/r rounded and q + q_lo = v/r to about 2^-106:
    the remainder v - q r is exact from Dekker's product, on v and r scaled
    by the same power of two."""
    m, e = math.frexp(r)
    m_hi, m_lo = _split(m)
    v = np.ldexp(v, -e)
    q = v / m
    q_hi, q_lo = _split(q)
    p = q * m
    p_err = ((q_hi * m_hi - p) + q_hi * m_lo + q_lo * m_hi) + q_lo * m_lo
    return q, ((v - p) - p_err) / m


def _cap_argument(r: float, h: np.ndarray) -> tuple:
    """(t, x_hi, x_lo) for the cap of the ball of radius r beyond |h| < r:
    t = |h|/r rounded, and x = 1 - h^2/r^2 = x_hi + x_lo to about 2^-104 in
    absolute terms, from the double-double |h|/r and Dekker's exact square."""
    t, t_lo = _quotient(np.abs(h), r)
    t_hi, t_mid = _split(t)
    y = t * t
    y_lo = (((t_hi * t_hi - y) + 2.0 * t_hi * t_mid) + t_mid * t_mid) + 2.0 * t * t_lo
    x_hi = 1.0 - y
    return t, x_hi, ((1.0 - x_hi) - y) - y_lo


def _band_series(a: float, t: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray) -> np.ndarray:
    """I_x(a, 1/2) for x = x_hi + x_lo >= 1/2, t = sqrt(1 - x), a >= _SERIES_MIN_A.

    With x = exp(-u) and (1 - exp(-tau))^(-1/2) = tau^(-1/2) phi(tau),
    I_x(a, 1/2) = x^a / B(a, 1/2) sum_k c_k J_k, J_k = e^(au) a^(-k-1/2)
    Gamma(k + 1/2, au): J_0 = sqrt(pi/a) erfcx(sqrt(au)) and
    J_k = ((k - 1/2) J_(k-1) + u^(k-1/2)) / a (DiDonato & Morris's BGRAT
    idea for small b). phi has radius of convergence 2 pi and u <= ln 2, so
    the sum converges for every a; below _SERIES_A, a first steps up through
    I_x(a, 1/2) = I_x(a + 1, 1/2) + x^a sqrt(1 - x) / (a B(a, 1/2)) (DLMF
    8.17.20), whose terms are all positive. x^a is pow(x_hi, a) (1 + a x_lo/x_hi).
    """
    steps, top, poly, erfcx_weight, weights, inv_beta = _series_tables(a)
    eta = x_lo / x_hi
    u = -(np.log(x_hi) + eta)
    acc = poly[-1]
    for c in poly[-2::-1]:
        acc = acc * u + c
    total = np.sqrt(u) * acc + erfcx_weight * special.erfcx(np.sqrt(top * u))
    if steps:
        q = weights[-1]
        for w in weights[-2::-1]:
            q = q * x_hi + w
        total = t * q + np.power(x_hi, steps) * (1.0 + steps * eta) * total
    return np.power(x_hi, a) * (1.0 + a * eta) * total * inv_beta


def _at(v, lanes):
    """v at the lanes; a scalar stays a numpy scalar, whose arithmetic costs
    a tenth of that of a one-element array, with the same bits."""
    return v if np.ndim(v) == 0 else v[lanes]


def _cap_beta(a: float, r: float, h: np.ndarray) -> tuple:
    """(I_x(a, 1/2), x) for the cap of the ball of radius r beyond |h|,
    x = 1 - h^2/r^2 clipped to [0, 1].

    x = ((r - h)/r)((r + h)/r) and its complement y = h^2/r^2 are both formed
    without cancellation (the (x, y) pair of TOMS 708), and scipy never forms
    1 - x itself. The lanes fall into three classes:

    - y up to the median of Beta(1/2, a): 1 - I_y(1/2, a), which loses at
      most one bit;
    - from there to y <= x: ``_band_series`` for a >= _SERIES_MIN_A, the
      slower betaincc below it;
    - x < y: betainc(a, 1/2, x) plus (x_exact - x) times the Beta(a, 1/2)
      density at x, the first-order term that the rounded x loses, with
      x_exact the double-double of ``_cap_argument``.
    """
    x = np.clip(((r - h) / r) * ((r + h) / r), 0.0, 1.0)
    t = h / r
    y = t * t  # a product: ** 2 rounds differently on numpy scalars
    near = y <= x
    by_subtraction = near & (y <= _beta_median(a))
    ix = special.betainc(0.5, a, y, where=by_subtraction, out=np.zeros_like(x))
    np.subtract(1.0, ix, where=by_subtraction, out=ix)
    band = near & ~by_subtraction
    if a < _SERIES_MIN_A:
        special.betaincc(0.5, a, y, where=band, out=ix)
    elif band.any():
        ix[band] = _band_series(a, *_cap_argument(r, _at(h, band)))
    far = ~near & (x > 0.0)
    if far.any():
        xf = _at(x, far)
        t_far, x_hi, x_lo = _cap_argument(r, _at(h, far))
        density = np.power(xf, a - 1.0) / t_far * _inverse_beta_half(a)
        ix[far] = special.betainc(a, 0.5, xf) + ((x_hi - xf) + x_lo) * density
    return ix, x


def _balls_pdf(geometry: BallGeometry, balls, s):
    """P_n(s) for the concentric uniform balls c_i 1[r <= r_i], ``balls``
    being the pairs (r_i, c_i) with every r_i <= R; ``s`` a float or an
    ndarray in [0, 2R].

    With every volume taken over that of the largest ball with c_i != 0,
    of radius rho (P does not depend on R),
    P(s) = n (s/rho)^(n-1) sum_ij c_i c_j V(r_i, r_j; s) / (sum_i c_i (r_i/rho)^n)^2 / rho.
    V(a, b; s), the overlap of two balls whose centres are s apart, is the
    two caps cut off by the radical hyperplane at h = (s^2 + a^2 - b^2)/2s
    from the first centre, V = C(a, h) + C(b, s - h), and the single cap
    2 C(a, s/2) for a = b. V is symmetric, so each pair is summed once. The
    cap of the ball of radius r beyond h >= 0 is
    C(r, h) = (r/rho)^n I_x((n+1)/2, 1/2) / 2, x = 1 - h^2/r^2 (Li 2011,
    "Concise formulas for the area and volume of a hyperspherical cap"), and
    C(r, h) = (r/rho)^n - C(r, -h) for h < 0. At s = 0, h is infinite for
    a != b, which gives the limit V(a, b; 0) = (min(a, b)/rho)^n.

    Where a cap's I_x underflows (near s = 2R at large n), or (s/rho)^(n-1)
    overflows (beyond n = 1024, or s > 2 rho), the sum is taken in log
    space, with I_x from DLMF 8.17.8, before (s/rho)^(n-1) scales it back.
    Raises PrecisionError where a value leaves the double range.
    """
    s = _as_support(geometry, s)
    n = geometry.dimension
    rho = max(r for r, c in balls if c)
    a_n = (n + 1) / 2.0

    def caps(t):
        """(w, r, f, h, I_x, x) of each cap at the lanes t, whose term is
        w (r/rho)^n f I_x for h >= 0 and w (r/rho)^n (1 - f I_x) for h < 0."""
        for i, (a, ca) in enumerate(balls):
            for j, (b, cb) in enumerate(balls[i:]):
                # pairs i < j stand for both orders
                w = ca * cb * (2.0 if j else 1.0)
                if w == 0.0:
                    continue
                if a == b:
                    yield (w, a, 1.0, 0.5 * t) + _cap_beta(a_n, a, 0.5 * t)
                    continue
                h = 0.5 * (t + (a - b) / t * (a + b))
                yield (w, a, 0.5, h) + _cap_beta(a_n, a, h)
                yield (w, b, 0.5, t - h) + _cap_beta(a_n, b, t - h)

    mass = sum(c * (r / rho) ** n for r, c in balls if c)
    with np.errstate(all="ignore"):
        total = np.zeros_like(s)
        underflow = np.zeros(s.shape, dtype=bool)
        for w, r, f, h, ix, x in caps(s):
            total += w * (r / rho) ** n * np.where(h >= 0.0, f * ix, 1.0 - f * ix)
            underflow |= (h >= 0.0) & (x > 0.0) & (ix < _TINY)
        # (s/rho)^(n-1) from the double-double s/rho, whose low part gives the
        # first-order term; np.power, not **, so that a float and an array
        # element agree bit for bit
        q, q_lo = _quotient(s, rho)
        rel = np.divide(q_lo, q, out=np.zeros_like(q), where=q > 0.0)
        out = np.asarray(n / rho * (np.power(q, n - 1) * (1.0 + (n - 1) * rel)
                                    * (total / (mass * mass))))
        logs = (s > 0.0) & (underflow | ~np.isfinite(out))
        if np.any(logs):
            t = s[logs]
            terms, signs = [], []
            for w, r, f, h, ix, x in caps(t):
                log_ix = np.log(ix)
                tail = (x > 0.0) & (ix < _TINY)
                log_ix[tail] = _log_reg_inc_beta_tail(a_n, x[tail])
                terms.append(math.log(abs(w)) + n * math.log(r / rho)
                             + np.where(h >= 0.0, math.log(f) + log_ix, np.log1p(-f * ix)))
                signs.append(math.copysign(1.0, w))
            terms = np.array(terms)
            top = np.max(terms, axis=0)
            # lanes where every cap is empty sum to 0, not to exp(-inf + inf)
            scaled = np.array(signs) @ np.exp(terms - top, out=np.zeros_like(terms),
                                              where=terms > -np.inf)
            out[logs] = n / rho * scaled * np.exp((n - 1) * (np.log(q[logs]) + rel[logs]) + top
                                                  - 2.0 * math.log(mass))
    if not np.all(np.isfinite(out)):
        raise PrecisionError(f"pair-distance PDF leaves the double range at n={n}")
    return out if out.ndim else float(out)


# Odd dimensions up to here take the paper's terminating odd-n polynomial.
# Summed in floats it stays within 1.8e-14 of exact evaluation at n = 9, and
# within 2.1e-13 at n = 13.
_ODD_POLYNOMIAL_MAX_N = 9


def pdf_uniform(geometry: BallGeometry, s):
    """P_n(s) = n (s/R)^(n-1) I_x((n+1)/2, 1/2) / R, x = 1 - s^2/4R^2, for a
    float or an ndarray of s (a float in gives a float out, an array the same
    shape).

    For odd n <= 9, I_x is a finite sum (its first parameter is an integer,
    DLMF 8.17) and P_n the polynomial of ``odd_series_coefficients``, summed
    by ``PiecewisePolynomial`` about s = 0 or s = 2R, which keeps full
    relative accuracy. Every other n is the one-ball case of ``_balls_pdf``,
    one incomplete-beta evaluation per lane (``_cap_beta``), fed the exact
    pair x = ((2R - s)/2R)((2R + s)/2R), y = s^2/4R^2, so the value keeps
    full relative accuracy for every R up to s = 2R, and lanes where I_x
    underflows or (s/R)^(n-1) overflows (n > 1024) are formed in log space.
    """
    n = geometry.dimension
    if n % 2 and n <= _ODD_POLYNOMIAL_MAX_N:
        return _odd_polynomial(n, geometry.radius)(_as_support(geometry, s))
    return _balls_pdf(geometry, ((geometry.radius, 1.0),), s)


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


@lru_cache(maxsize=32)
def _odd_polynomial(n: int, radius: float) -> _series.PiecewisePolynomial:
    """P_n(s) for odd n from the exact odd-series table."""
    return _series.ball_polynomial(odd_series_coefficients(n), radius)


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


def pdf_uniform_repr(geometry: BallGeometry, s, representation: Representation):
    """P_n(s) through any single representation; parity mismatches raise.
    ``s`` is a float, or for REG_INC_BETA also an ndarray (the cap kernel of
    ``_balls_pdf``, which gives each element the bits of its float call)."""
    _as_support(geometry, s)
    n, R = geometry.dimension, geometry.radius
    rep = Representation(representation)
    if rep is Representation.REG_INC_BETA:
        return _balls_pdf(geometry, ((R, 1.0),), s)
    if rep is Representation.ODD_SERIES and n % 2 == 0:
        raise InvalidRepresentationError("odd series is only valid for odd n")
    if rep is Representation.EVEN_SERIES and n % 2 == 1:
        raise InvalidRepresentationError("even series is only valid for even n")
    if s == 0.0:
        return 1.0 / R if n == 1 else 0.0

    if rep is Representation.INC_BETA:
        x = _x_of(geometry, s)
        bx = 0.0 if x <= 0.0 else inc_beta(x, (n + 1) / 2.0, 0.5)
        return n * s ** (n - 1) * bx / (beta((n + 1) / 2.0, 0.5) * R ** n)
    if rep is Representation.INTEGRAL:
        return s ** (n - 1) * q_kernel_quadrature(geometry, s) / normalization_constant(geometry)
    if rep is Representation.ODD_SERIES:
        return _odd_polynomial(n, R)(s)
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
