"""Physics payloads: pair-distance moments (with and without a hard core),
Coulomb-type self-energies, neutrino-pair-exchange self-energies, and the
geometric constant <r12.r23>.

Hard-core moments come from one pole-free integral (the moment integral with
its order of integration swapped), so every integer order is finite; the
other payloads are closed forms in the special functions of ``core``.

Self-energy totals are always pair count times the per-pair energy,
W = N(N-1)/2 * U, with U = coupling * <1/s^k>. Note that the closed form
often quoted as W_n = 2n/(n+2) Z(Z-1) q^2 / R^(n-2) double-counts pairs:
the pair-count route gives n/(n+2) Z(Z-1) q^2 / R^(n-2), which is what this
module computes (it reproduces W_3 = (3/5) Z(Z-1) e0^2/R).

All energies are in caller-supplied units. Reference values for nucleon
applications (documented presets, never applied implicitly): hard-core
radius r_c = 0.5e-13 cm and standard-model neutrino couplings
a_e = 0.964, a_p = 0.036, a_n = -1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BallGeometry,
    DivergentMomentError,
    DomainError,
    PrecisionError,
    UnsupportedError,
    beta,
    inc_gamma_upper,
    log_beta,
    log_gamma,
)

__all__ = [
    "SelfEnergySpec",
    "HARD_CORE_RADIUS_CM",
    "COUPLING_ELECTRON",
    "COUPLING_PROTON",
    "COUPLING_NEUTRON",
    "moment_uniform",
    "moment_uniform_gamma_forms",
    "moment_gaussian",
    "moment_hardcore",
    "coulomb_pair_energy",
    "coulomb_self_energy",
    "coulomb_gaussian_pair_energy",
    "coulomb_gaussian_self_energy",
    "neutrino_self_energy_uniform",
    "neutrino_self_energy_gaussian",
    "dot_constant",
]

HARD_CORE_RADIUS_CM = 0.5e-13
COUPLING_ELECTRON = 0.964
COUPLING_PROTON = 0.036
COUPLING_NEUTRON = -0.5


@dataclass(frozen=True)
class SelfEnergySpec:
    """Pairwise self-energy request: N(N-1)/2 pairs at the given coupling."""
    count: int
    coupling: float = 1.0
    geometry: BallGeometry = None
    sigma: float = None

    def __post_init__(self):
        if self.count < 2:
            raise DomainError("need at least two particles for a pair energy")

    @property
    def pair_count(self) -> float:
        return self.count * (self.count - 1) / 2.0


_LOG_TINY, _LOG_HUGE = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


def _in_range(direct, log_value, what: str) -> float:
    """``direct()`` where it is a finite, nonzero double; where it overflows
    or underflows, the positive value exp(``log_value()``), or
    PrecisionError if that lies outside the normal double range."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    log_v = log_value()
    if not (_LOG_TINY < log_v < _LOG_HUGE):
        raise PrecisionError(f"{what} lies outside the double range")
    return math.exp(log_v)


def _energy(compute, coupling: float, what: str) -> float:
    """``compute()``, or PrecisionError where it overflows, or underflows to
    zero although ``coupling`` is not zero (an OverflowError or
    ZeroDivisionError on the way counts as leaving the range)."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value) or (value == 0.0 and coupling != 0.0):
        raise PrecisionError(f"{what} lies outside the double range")
    return value


def moment_uniform(geometry: BallGeometry, m: int) -> float:
    """<s^m> for the uniform ball:
    2^(n+m) (n/(n+m)) B((n+1)/2, (n+1+m)/2) / B((n+1)/2, 1/2) R^m,
    valid for integer m >= -(n-1); formed in log space where that product
    leaves the double range, and PrecisionError where the value does."""
    n, R = geometry.dimension, geometry.radius
    if m < -(n - 1):
        raise DivergentMomentError(
            f"<s^{m}> diverges for the uniform {n}-ball (needs m >= -(n-1) = {-(n - 1)})")
    if m == 0:
        return 1.0
    p = (n + 1) / 2.0
    return _in_range(
        lambda: 2.0 ** (n + m) * (n / (n + m)) * beta(p, p + m / 2.0) / beta(p, 0.5) * R ** m,
        lambda: ((n + m) * math.log(2.0) + math.log(n / (n + m)) + log_beta(p, p + m / 2.0)
                 - log_beta(p, 0.5) + m * math.log(R)),
        f"<s^{m}> for the uniform {n}-ball of radius {R!r}")


def moment_uniform_gamma_forms(geometry: BallGeometry, m: int) -> tuple:
    """The two equivalent gamma-function forms of <s^m> (cross-check surface)."""
    n, R = geometry.dimension, geometry.radius
    if m < -(n - 1):
        raise DivergentMomentError(f"<s^{m}> diverges (needs m >= -(n-1))")
    g = math.lgamma
    form1 = ((2.0 * R) ** m * (n / (n + m))
             * math.exp(g((n + m + 1) / 2.0) + g(n + 1.0) - g(n + 1.0 + m / 2.0) - g((n + 1) / 2.0)))
    form2 = ((n / (n + m)) ** 2
             * math.exp(g(n + m + 1.0) + g(n / 2.0) - g((n + m) / 2.0) - g(n + 1.0 + m / 2.0))
             * R ** m)
    return form1, form2


def moment_gaussian(n: int, sigma: float, m: int) -> float:
    """<s^m> for the Gaussian cloud: (2 sigma)^m Gamma((n+m)/2) / Gamma(n/2),
    formed in log space where that product leaves the double range, and
    PrecisionError where the value does."""
    if n + m <= 0:
        raise DivergentMomentError(f"<s^{m}> diverges for the Gaussian in n={n} (needs n+m > 0)")
    if not (0.0 < sigma < math.inf):
        raise DomainError("sigma must be positive and finite")
    log_ratio = log_gamma((n + m) / 2.0) - log_gamma(n / 2.0)
    return _in_range(lambda: (2.0 * sigma) ** m * math.exp(log_ratio),
                     lambda: m * math.log(2.0 * sigma) + log_ratio,
                     f"<s^{m}> for the Gaussian of sigma {sigma!r} in n={n}")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _log_hardcore_integral(n: int, R: float, r_c: float, k: int) -> float:
    """log H, H = int_{r_c/2}^R (R^2 - x^2)^((n-1)/2) ((2x)^k - r_c^k)/k dx with
    k = m + n, and log(2x/r_c) for the bracket at k = 0: the moment
    numerator int_{r_c}^{2R} s^(m+n-1) Q_n(s) ds with the order of integration
    swapped, which has no poles in m.

    With x^2/R^2 = y = y0 e^L, y0 = (r_c/2R)^2, L in [0, L1], L1 = -log y0,
    H = R^n/2 * int (1-y)^((n-1)/2) y^(1/2) (e^(kL/2) - 1)/k dL, summed in log
    space with the bracket's largest value (r_c^k for k <= 0, (2R)^k for
    k > 0) taken out. The integrand is log-concave in L; its mass sits at the
    ends or at the mode of (1-y)^((n-1)/2) y^((1+k+)/2), k+ = max(k, 0), on
    scales down to h0 = 1/(1 + |k| + (n-1) y/(1-y)) there. The 48-node
    Gauss-Legendre rule runs on pieces graded by factors of 4 from h0 around
    L = 0, the mode and L1; on the last piece it runs in w = sqrt(L1 - L),
    where (1-y)^((n-1)/2) dL is smooth for every n.
    """
    log_y0 = 2.0 * math.log(r_c / (2.0 * R))
    L1 = -log_y0
    kp = max(k, 0)
    centre = min(max(L1 + math.log((1.0 + kp) / (n + kp)), 0.0), L1)
    y = math.exp(log_y0 + centre)
    h0 = 1.0 / (1.0 + abs(k) + ((n - 1) * y / (1.0 - y) if n > 1 else 0.0))
    breaks = {0.0, L1}
    for c in (0.0, centre, L1):
        h = h0
        while h < L1:
            breaks.update(v for v in (c - h, c + h) if 0.0 < v < L1 - h0)
            h *= 4.0
    b = np.array(sorted(breaks))
    half = 0.5 * np.diff(b[:-1])[:, None]
    L = (b[:-2, None] + half * (1.0 + _GL_NODES)).ravel()
    d = ((L1 - b[1:-1, None]) + half * (1.0 - _GL_NODES)).ravel()
    w = 0.5 * math.sqrt(L1 - b[-2]) * (1.0 + _GL_NODES)
    L, d = np.concatenate((L, L1 - w * w)), np.concatenate((d, w * w))
    weights = np.concatenate(((half * _GL_WEIGHTS).ravel(),
                              math.sqrt(L1 - b[-2]) * _GL_WEIGHTS * w))
    log_f = 0.5 * (n - 1) * np.log(-np.expm1(-d)) + 0.5 * (log_y0 + L) + np.log(weights)
    if k < 0:
        log_f += np.log(-np.expm1(0.5 * k * L)) - math.log(-k)
    elif k > 0:
        log_f += np.log(-np.expm1(-0.5 * k * L)) - 0.5 * k * d - math.log(k)
    else:
        log_f += np.log(0.5 * L)
    top = np.max(log_f)
    log_j = top + math.log(np.sum(np.exp(log_f - top)))
    return n * math.log(R) - math.log(2.0) + k * math.log(r_c if k <= 0 else 2.0 * R) + log_j


def moment_hardcore(geometry: BallGeometry, r_c: float, m: int) -> float:
    """<s^m> over [r_c, 2R] (both numerator and normalization truncated):
    H(R, r_c; m, n) / H(R, r_c; 0, n). Every integer order is finite here,
    because the cutoff removes the s = 0 divergence; a ratio outside the
    double range raises ``PrecisionError``."""
    n, R = geometry.dimension, geometry.radius
    if r_c >= 2.0 * R:
        raise DomainError(f"hard core r_c={r_c!r} leaves empty support (needs r_c < 2R)")
    if not (r_c > 0.0):
        raise DomainError("hard-core radius must be positive; use moment_uniform for r_c = 0")
    if m == 0:
        return 1.0
    log_ratio = _log_hardcore_integral(n, R, r_c, m + n) - _log_hardcore_integral(n, R, r_c, n)
    if not (_LOG_TINY < log_ratio < _LOG_HUGE):
        raise PrecisionError(f"hard-core moment order m = {m} is outside double-precision range")
    return math.exp(log_ratio)


# ---------------------------------------------------------------------------
# Coulomb-type self-energies (1/s^(n-2) pair potential)
# ---------------------------------------------------------------------------

def coulomb_pair_energy(geometry: BallGeometry, q2: float = 1.0) -> float:
    """Average pair energy U_n = q^2 <1/s^(n-2)> = q^2 2n / ((n+2) R^(n-2))."""
    n, R = geometry.dimension, geometry.radius
    if n < 3:
        raise UnsupportedError("the 1/s^(n-2) pair potential needs n >= 3")
    return _energy(lambda: q2 * 2.0 * n / ((n + 2.0) * R ** (n - 2)), q2,
                   f"the Coulomb pair energy in the {n}-ball of radius {R!r}")


def coulomb_self_energy(spec: SelfEnergySpec) -> float:
    """Total W = N(N-1)/2 * U_n = n/(n+2) N(N-1) q^2 / R^(n-2)."""
    if spec.geometry is None:
        raise DomainError("coulomb_self_energy needs a ball geometry")
    u = coulomb_pair_energy(spec.geometry, spec.coupling)
    return _energy(lambda: spec.pair_count * u, u, "the Coulomb self-energy")


def coulomb_gaussian_pair_energy(n: int, sigma: float, q2: float = 1.0) -> float:
    """Per-pair energy for a Gaussian charge cloud:
    q^2 <1/s^(n-2)> = q^2 / (2^(n-2) Gamma(n/2) sigma^(n-2))."""
    if n < 3:
        raise UnsupportedError("the 1/s^(n-2) pair potential needs n >= 3")
    moment = moment_gaussian(n, sigma, -(n - 2))
    return _energy(lambda: q2 * moment, q2, "the Gaussian Coulomb pair energy")


def coulomb_gaussian_self_energy(spec: SelfEnergySpec, n: int = None) -> float:
    if spec.sigma is None:
        raise DomainError("coulomb_gaussian_self_energy needs sigma")
    dim = n if n is not None else (spec.geometry.dimension if spec.geometry else 3)
    u = coulomb_gaussian_pair_energy(dim, spec.sigma, spec.coupling)
    return _energy(lambda: spec.pair_count * u, u, "the Gaussian Coulomb self-energy")


# ---------------------------------------------------------------------------
# Neutrino-pair exchange (1/s^5 pair potential, 3 dimensions)
# ---------------------------------------------------------------------------

def neutrino_self_energy_uniform(radius: float, r_c: float, count: int,
                                 g_f2: float = 1.0, a2: float = 1.0) -> float:
    """W_3 for N particles uniformly distributed in a 3-ball with hard core:

        W = N(N-1)/2 * (a^2 G_F^2 / 4 pi^3)
            * (3/(2 r_c^2 R^3) - 9/(4 r_c R^4) + 9/(8 R^5) - 3 r_c/(16 R^6)),

    the bracket being int_{r_c}^{2R} s^-5 P_3(s) ds in closed form. The
    coupling product a^2 is an explicit factor (default 1); see the module
    constants for the standard-model values.

    The bracket is evaluated as 3 (2R - r_c)^3 / (16 r_c^2 R^6), which has no
    cancellation (its four terms cancel as r_c -> 2R), directly where that
    product stays in range and in log space where a factor leaves it;
    PrecisionError where W itself does.
    """
    if not (0.0 < r_c < 2.0 * radius):
        raise DomainError(f"need 0 < r_c < 2R, got r_c={r_c!r}, R={radius!r}")
    if count < 2:
        raise DomainError("need at least two particles")
    coupling = a2 * g_f2
    if coupling == 0.0:
        return 0.0
    R, pairs = radius, count * (count - 1) / 2.0
    gap = (2.0 * R - r_c) / R  # 2R - r_c is exact for r_c >= R
    weight = 3.0 / (64.0 * math.pi ** 3)
    value = _in_range(
        lambda: pairs * abs(coupling) * weight * gap ** 3 * (1.0 / r_c) ** 2 * (1.0 / R) ** 3,
        lambda: (math.log(pairs) + math.log(abs(coupling)) + math.log(weight)
                 + 3.0 * math.log(gap) - 2.0 * math.log(r_c) - 3.0 * math.log(R)),
        "the neutrino-pair self-energy")
    return math.copysign(value, coupling)


def neutrino_self_energy_gaussian(sigma: float, r_c: float, count: int,
                                  g_f2: float = 1.0, a2: float = 1.0) -> float:
    """W_3 for a Gaussian cloud with hard core:

        W = [exp(-r_c^2/4 sigma^2)/r_c^2 - Gamma(0, r_c^2/4 sigma^2)/(4 sigma^2)]
            * N(N-1) a^2 G_F^2 / (32 sigma^3 pi^(7/2)).
    """
    if not (r_c > 0.0):
        raise DomainError("hard-core radius must be positive")
    if not (sigma > 0.0):
        raise DomainError("sigma must be positive")
    if count < 2:
        raise DomainError("need at least two particles")

    def energy():
        v = r_c ** 2 / (4.0 * sigma ** 2)
        bracket = math.exp(-v) / r_c ** 2 - inc_gamma_upper(0.0, v) / (4.0 * sigma ** 2)
        return bracket * count * (count - 1) * a2 * g_f2 / (32.0 * sigma ** 3 * math.pi ** 3.5)
    return _energy(energy, a2 * g_f2, "the Gaussian neutrino-pair self-energy")


# ---------------------------------------------------------------------------
# Geometric constants
# ---------------------------------------------------------------------------

def dot_constant(n: int, scale: float = 1.0, kind: str = "uniform") -> float:
    """<r12 . r23> for three independent points: -n/(n+2) R^2 for the uniform
    ball (scale = R) and -n sigma^2 for the Gaussian (scale = sigma).

    Both equal -(1/2) <s^2> for the matching density; the identity is checked
    on every call.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if kind == "uniform":
        value = -n / (n + 2.0) * scale ** 2
        half_s2 = -0.5 * moment_uniform(BallGeometry(n, scale), 2)
    elif kind == "gaussian":
        value = -n * scale ** 2
        half_s2 = -0.5 * moment_gaussian(n, scale, 2)
    else:
        raise DomainError(f"kind must be 'uniform' or 'gaussian', got {kind!r}")
    if abs(value - half_s2) > 1e-12 * abs(value):
        raise AssertionError("closed form disagrees with -(1/2)<s^2>; internal inconsistency")
    return value
