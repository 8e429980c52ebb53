"""Arbitrary (non-symmetric) densities: hyperspherical coordinates, the
n-dimensional rotation operator, the master pair-distance formula, and the
three printed closed-form examples (x^4 y^4 in 2d, x^2 y^2 z^2 in 3d, x_1^4
in 4d).

The master formula averages the rotated-and-translated density product over
all orientations of the separation vector:

    f(s) = s^(n-1) * Int[angles, weights sin^k] Int[overlap cap]
           rho(R^T X) rho(R^T (X - S)) dX,     S = (0, ..., 0, s),

and P_n(s) = f(s) / Int_0^2R f = f(s) / ((Int_B rho)^2 / 2): every pair lies
at some distance, and the cap holds half of each overlap. The angular
weights are absorbed exactly by Gauss-Legendre nodes in cos(theta_i) and
uniform nodes in phi (quadrature, n = 2, 3) or by sampling orientations
uniformly on the sphere (Monte Carlo, n = 2..6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from ._rng import CounterStream
from ._series import ball_polynomial
from .core import (
    BallGeometry,
    DensityModel,
    DomainError,
    Gaussian,
    GeneralCartesian,
    InvalidDensityError,
    Uniform,
    UnsupportedError,
    _as_support,
    _row_sumsq,
    density_mass,
    density_value,
    log_gamma,
    sphere_area,
)
from .montecarlo import PairWindow, _normal_rows, _rows_per_block, _uniform_ball_points
from .uniform import overlap_kernels

__all__ = [
    "AngleSet",
    "spherical_to_cartesian",
    "rotation_matrix",
    "angles_from_direction",
    "MasterEstimate",
    "pdf_master",
    "pdf_example_2d",
    "pdf_example_3d",
    "pdf_example_4d",
]


@dataclass(frozen=True)
class AngleSet:
    """Hyperspherical angles: n-2 polar angles in [0, pi] plus an azimuth."""
    polars: tuple
    azimuth: float

    def __post_init__(self):
        object.__setattr__(self, "polars", tuple(float(t) for t in self.polars))
        for t in self.polars:
            if not (0.0 <= t <= math.pi):
                raise DomainError(f"polar angle {t!r} outside [0, pi]")

    @property
    def dimension(self) -> int:
        return len(self.polars) + 2


def spherical_to_cartesian(n: int, r: float, angles: AngleSet) -> np.ndarray:
    """Cartesian coordinates of the hyperspherical point (r, angles):
    x_1 = r sin(t_{n-2}) ... sin(t_1) cos(phi), ..., x_n = r cos(t_{n-2})."""
    if n < 2:
        raise DomainError("spherical coordinates need n >= 2")
    if angles.dimension != n:
        raise DomainError(f"angle set has {angles.dimension - 2} polar angles, need {n - 2}")
    if r < 0.0:
        raise DomainError("r must be >= 0")
    x = np.empty(n)
    p = float(r)
    for j in range(n - 1, 1, -1):
        t = angles.polars[j - 2]
        x[j] = p * math.cos(t)
        p = p * math.sin(t)
    x[1] = p * math.sin(angles.azimuth)
    x[0] = p * math.cos(angles.azimuth)
    return x


def _elementary_phi(n: int, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    m = np.zeros(phi.shape + (n, n))
    idx = np.arange(n)
    m[..., idx, idx] = 1.0
    c, s = np.cos(phi), np.sin(phi)
    m[..., 0, 0] = c
    m[..., 0, 1] = s
    m[..., 1, 0] = -s
    m[..., 1, 1] = c
    return m


def _elementary_theta(n: int, i: int, theta) -> np.ndarray:
    """Factor R(theta_i): rotates rows/columns (1,3) for i = 1 and
    (i+1, i+2) for i >= 2, in 1-based labels."""
    theta = np.asarray(theta, dtype=float)
    m = np.zeros(theta.shape + (n, n))
    idx = np.arange(n)
    m[..., idx, idx] = 1.0
    c, s = np.cos(theta), np.sin(theta)
    a, b = (0, 2) if i == 1 else (i, i + 1)
    m[..., a, a] = c
    m[..., a, b] = -s
    m[..., b, a] = s
    m[..., b, b] = c
    return m


def rotation_matrix(n: int, angles: AngleSet) -> np.ndarray:
    """Product R(t_{n-2}) R(t_{n-3}) ... R(t_1) R(phi) of the elementary
    factors. Orthogonal with determinant +1; the last row equals the unit
    vector spherical_to_cartesian(n, 1, angles) component by component."""
    if n < 2:
        raise DomainError("rotations need n >= 2")
    if angles.dimension != n:
        raise DomainError(f"angle set has {angles.dimension - 2} polar angles, need {n - 2}")
    m = None
    for i in range(n - 2, 0, -1):
        f = _elementary_theta(n, i, angles.polars[i - 1])
        m = f if m is None else m @ f
    f = _elementary_phi(n, angles.azimuth)
    return f if m is None else m @ f


def angles_from_direction(u: np.ndarray) -> AngleSet:
    """Hyperspherical angles of a direction vector (inverse coordinate map)."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    phi = math.atan2(u[1], u[0]) % (2.0 * math.pi)
    polars = []
    for k in range(1, n - 1):
        perp = math.sqrt(float(np.sum(u[: k + 1] ** 2)))
        polars.append(math.atan2(perp, u[k + 1]))
    return AngleSet(polars=tuple(polars), azimuth=phi)


# ---------------------------------------------------------------------------
# Master formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MasterEstimate:
    value: float
    error: float


def _quad_levels(n: int, tol: float) -> tuple:
    if n == 2:
        if tol >= 1e-4:
            return (20, 10, 24)
        if tol >= 1e-8:
            return (32, 16, 40)
        return (48, 24, 64)
    if tol >= 1e-4:
        return (16, 8, 10, 10, 12)
    if tol >= 1e-8:
        return (24, 12, 16, 16, 20)
    return (32, 16, 20, 20, 24)


@lru_cache(maxsize=None)
def _gauss_legendre(k: int) -> tuple:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1],
    computed once per k and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _angular_rule(n: int, nodes: tuple) -> tuple:
    """Rotations (last row: the direction) and weights of a ``_quad_levels``
    rule: uniform in phi, times Gauss-Legendre in cos(theta) for n = 3."""
    nphi = nodes[-1]
    rots = _elementary_phi(n, 2.0 * math.pi * np.arange(nphi) / nphi)
    if n == 2:
        return rots, np.full(nphi, 2.0 * math.pi / nphi)
    gl_c, gw_c = _gauss_legendre(nodes[3])
    rots = (_elementary_theta(3, 1, np.arccos(gl_c))[:, None] @ rots[None]).reshape(-1, 3, 3)
    return rots, np.repeat(gw_c * 2.0 * math.pi / nphi, nphi)


def _cap_rule(geometry: BallGeometry, s: float, nodes: tuple) -> tuple:
    """Points X of the overlap cap {x_n >= s/2} of the unrotated frame and
    their weights Wc: Gauss-Legendre in u = asin(x_n / R) over
    [asin(s / 2R), pi / 2], times Gauss-Legendre across the slice (n = 2) or
    in its polar radius, with uniform polar angles (n = 3)."""
    n, R = geometry.dimension, geometry.radius
    if n == 2:
        nu, nv, _ = nodes
    else:
        nu, nt, npsi, _, _ = nodes
    gl_u, gw_u = _gauss_legendre(nu)
    lo = math.asin(min(s / (2.0 * R), 1.0))
    uu = lo + (math.pi / 2.0 - lo) * (gl_u + 1.0) / 2.0
    wu = gw_u * (math.pi / 2.0 - lo) / 2.0
    xn = R * np.sin(uu)
    w_perp = R * np.cos(uu)          # radius of the perpendicular ball
    jac_u = R * np.cos(uu)           # dx_n = R cos(u) du

    if n == 2:
        gl_v, gw_v = _gauss_legendre(nv)
        X = np.empty((nu * nv, 2))
        X[:, 0] = (w_perp[:, None] * gl_v[None, :]).ravel()
        X[:, 1] = np.repeat(xn, nv)
        Wc = ((wu * jac_u * w_perp)[:, None] * gw_v[None, :]).ravel()
    else:
        gl_t, gw_t = _gauss_legendre(nt)
        tau = (gl_t + 1.0) / 2.0
        wt = gw_t / 2.0
        psis = 2.0 * math.pi * np.arange(npsi) / npsi
        wpsi = 2.0 * math.pi / npsi
        # cap point block: x3 slice x polar radius x polar angle
        tr = (w_perp[:, None] * tau[None, :])
        X = np.empty((nu * nt * npsi, 3))
        X[:, 0] = (tr[:, :, None] * np.cos(psis)[None, None, :]).ravel()
        X[:, 1] = (tr[:, :, None] * np.sin(psis)[None, None, :]).ravel()
        X[:, 2] = np.repeat(xn, nt * npsi)
        Wc = np.broadcast_to(
            (wu * jac_u)[:, None, None]
            * (w_perp[:, None, None] ** 2 * tau[None, :, None] * wt[None, :, None])
            * wpsi, (nu, nt, npsi)).ravel()
    return X, Wc


# Cap points per rotation block: the block's rotated points, density values
# and products stay below 0.5 MB.
_QUAD_BLOCK_POINTS = 16384


def _master_unnormalized_quad(geometry: BallGeometry, density: DensityModel,
                              s: float, nodes: tuple) -> float:
    """s^(n-1) times the sum over the rotations m of the angular rule of
    w_m sum_X Wc rho(X m) rho((X - S) m), S = s e_n. Whole rotations are
    evaluated a block at a time; each rotation's sum is the same float as
    its own ``np.sum`` and is added in rotation order, so the block size
    changes no bit."""
    n, R = geometry.dimension, geometry.radius
    if s >= 2.0 * R:
        return 0.0
    X, Wc = _cap_rule(geometry, s, nodes)
    rots, w_ang = _angular_rule(n, nodes)
    S = np.zeros(n)
    S[-1] = s
    XS = X - S
    step = max(1, _QUAD_BLOCK_POINTS // len(X))
    total = 0.0
    for lo in range(0, len(rots), step):
        block = rots[lo:lo + step]
        a = density_value(density, np.matmul(X, block).reshape(-1, n), geometry)
        b = density_value(density, np.matmul(XS, block).reshape(-1, n), geometry)
        prod = np.multiply(Wc, a.reshape(len(block), -1))
        prod *= b.reshape(len(block), -1)
        sums = np.sum(prod, axis=-1)
        for wa, row in zip(w_ang[lo:lo + step], sums):
            total += wa * float(row)
    return s ** (n - 1) * total


def _cap_heights(geometry: BallGeometry, s: float, stream: CounterStream, count: int) -> np.ndarray:
    """Heights x_n of uniform points over the cap {x_n in [s/2, R],
    |x_perp| <= sqrt(R^2-x_n^2)}, by rejection on the (n-1)-ball slice volume."""
    n, R = geometry.dimension, geometry.radius
    xn = np.empty(count)
    got = 0
    env = (R * R - s * s / 4.0) ** ((n - 1) / 2.0)
    while got < count:
        cand = s / 2.0 + (R - s / 2.0) * stream.uniforms(16384)
        u = stream.uniforms(16384)
        keep = cand[u * env < (R * R - cand * cand) ** ((n - 1) / 2.0)]
        take = min(len(keep), count - got)
        xn[got:got + take] = keep[:take]
        got += take
    return xn


def _windowed_values(count: int, n: int, values) -> np.ndarray:
    """The count row values of a batch, filled one pair window at a time:
    ``values(window)`` returns those of the window's rows [lo, hi) and
    P + [lo, hi), P = count / 2. Windows hold about _BLOCK / 2 numbers per
    array. An odd count has no pair windows and is filled by ``values(None)``
    at once."""
    vals = np.empty(count)
    if count % 2:
        vals[:] = values(None)
        return vals
    half = count // 2
    step = max(1, _rows_per_block(n) // 4)
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        part = values(PairWindow(lo, hi))
        vals[lo:hi] = part[:hi - lo]
        vals[half + lo:half + hi] = part[hi - lo:]
    return vals


def _master_unnormalized_mc(geometry: BallGeometry, density: DensityModel,
                            s: float, samples: int, stream: CounterStream) -> tuple:
    """Monte Carlo estimate of the unnormalized master integrand; returns
    (value, standard_error). Orientations are drawn from the exact angular
    measure (uniform directions u); cap points uniformly over the overlap cap,
    whose exact volume rescales the density-product average. The Householder
    reflection H = I - 2 v v^T / v^T v, v = e_n - u, sends e_n to u; any such
    map will do, as the cap distribution is O(n-1)-invariant.

    A chunk of k samples takes, in stream order, k n normals for u, the cap
    heights, then the k perpendicular points of the unit (n-1)-ball. The
    heights are drawn whole; the rows of u and of the perpendicular points
    are drawn and mapped one pair window at a time from their own counters,
    bit for bit the rows of the whole draw."""
    n, R = geometry.dimension, geometry.radius
    if s >= 2.0 * R:
        return 0.0, 0.0
    q, _ = overlap_kernels(geometry, s)
    v_cap = math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n + 1) / 2.0)) * q
    scale = s ** (n - 1) * v_cap * sphere_area(n)
    e_n = np.eye(n)[-1]
    slice_ball = BallGeometry(n - 1, 1.0)

    def draw(k):
        c_u = stream.counter
        stream.counter += 2 * ((k * n + 1) // 2)  # the words of normals(k n)
        xn = _cap_heights(geometry, s, stream, k)
        c_p = stream.counter

        def products(window):
            stream.counter = c_u
            u = _normal_rows(stream, n, k, window)
            stream.counter = c_p
            perp = _uniform_ball_points(slice_ball, stream, k, window)
            xn_w = xn if window is None else np.concatenate(
                (xn[window.lo:window.hi], xn[k // 2 + window.lo:k // 2 + window.hi]))
            norm = np.sqrt(_row_sumsq(u))
            norm[norm == 0.0] = 1.0
            u /= norm[:, None]
            v = e_n - u
            vv = _row_sumsq(v)
            vv[vv == 0.0] = 1.0  # u = e_n: v = 0 and H is the identity
            HX = np.empty((len(u), n))
            np.multiply(perp, np.sqrt(R * R - xn_w * xn_w)[:, None], out=HX[:, :-1])
            HX[:, -1] = xn_w
            HX -= v * (2.0 * np.sum(HX * v, axis=1) / vv)[:, None]
            u *= s
            np.subtract(HX, u, out=u)
            return density_value(density, HX, geometry) * density_value(density, u, geometry)
        return _windowed_values(k, n, products)
    mean, err = _chunked_mean(samples, draw)
    return scale * mean, scale * err


def _mass_quad(geometry: BallGeometry, density: DensityModel, nodes: tuple) -> float:
    """Int_B rho by Gauss-Legendre nodes in r times the angular rule of ``nodes``."""
    n, R = geometry.dimension, geometry.radius
    gl_r, gw_r = _gauss_legendre(nodes[0])
    r = R * (gl_r + 1.0) / 2.0
    rots, w_ang = _angular_rule(n, nodes)
    pts = (r[:, None, None] * rots[None, :, -1, :]).reshape(-1, n)
    w = np.outer(gw_r * R / 2.0 * r ** (n - 1), w_ang).ravel()
    return float(np.sum(w * density_value(density, pts, geometry)))


def _chunked_mean(samples: int, draw) -> tuple:
    """Mean of ``samples`` values drawn ``draw(k)`` at a time, and its standard error."""
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        k = min(65536, samples - done)
        vals = draw(k)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += k
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def _master_norm(geometry: BallGeometry, density: DensityModel, method: str,
                 budget, seed: int) -> tuple:
    """((Int_B rho)^2 / 2, its relative error 2 err_I / I); the mass I is
    exact (err_I = 0) except for GeneralCartesian."""
    if isinstance(density, GeneralCartesian):
        n = geometry.dimension
        if method == "quadrature":
            mass = _mass_quad(geometry, density, _quad_levels(n, budget))
            mass_err = abs(mass - _mass_quad(geometry, density, _quad_levels(n, budget * 1e4)))
        else:
            stream = CounterStream(seed, 2)

            def draw(k):
                start = stream.counter

                def values(window):
                    stream.counter = start
                    return density_value(
                        density, _uniform_ball_points(geometry, stream, k, window), geometry)
                return _windowed_values(k, n, values)
            mean, err = _chunked_mean(budget, draw)
            volume = density_mass(Uniform(), geometry)
            mass, mass_err = volume * mean, volume * err
    else:
        mass, mass_err = density_mass(density, geometry), 0.0
    if mass == 0.0:
        raise InvalidDensityError("density integrates to zero over the ball")
    return mass * mass / 2.0, 2.0 * mass_err / abs(mass)


def pdf_master(geometry: BallGeometry, density: DensityModel, s: float,
               method: str = "quadrature", budget=None, seed: int = 0) -> MasterEstimate:
    """P_n(s) for an arbitrary ball-supported density via the master formula.

    ``method="quadrature"`` (n in {2, 3}) takes ``budget`` as an absolute
    tolerance target (default 1e-6); ``method="montecarlo"`` (n in {2..6})
    takes ``budget`` as the sample count per evaluation (default 200_000).
    The curve is normalized by (Int_B rho)^2 / 2, exact except for
    GeneralCartesian, whose mass is estimated by the same method and budget.
    The error bound is the hi/lo quadrature difference or the Monte Carlo
    standard error, plus the normalization's relative error times the value.
    """
    n = geometry.dimension
    _as_support(geometry, s)
    if isinstance(density, Gaussian):
        raise InvalidDensityError("the master formula assumes support inside the ball")
    if method == "quadrature":
        if n not in (2, 3):
            raise UnsupportedError("quadrature master formula covers n in {2, 3}")
        tol = 1e-6 if budget is None else float(budget)
        norm, norm_err = _master_norm(geometry, density, method, tol, seed)
        f = _master_unnormalized_quad(geometry, density, s, _quad_levels(n, tol))
        f_lo = _master_unnormalized_quad(geometry, density, s, _quad_levels(n, tol * 1e4))
        f_err = abs(f - f_lo) + 1e-13 * abs(f)
    elif method == "montecarlo":
        if n not in (2, 3, 4, 5, 6):
            raise UnsupportedError("Monte Carlo master formula covers n in {2..6}")
        samples = 200_000 if budget is None else int(budget)
        norm, norm_err = _master_norm(geometry, density, method, samples, seed)
        f, f_err = _master_unnormalized_mc(geometry, density, s, samples, CounterStream(seed, 1))
    else:
        raise UnsupportedError(f"unknown method {method!r}")
    value = f / norm
    return MasterEstimate(value=value, error=f_err / norm + abs(value) * norm_err)


# ---------------------------------------------------------------------------
# Printed closed-form examples
# ---------------------------------------------------------------------------

_EX2_POLY = {1: Fraction(875, 81), 3: Fraction(500, 3), 5: Fraction(7400, 21),
             7: Fraction(400, 3), 9: Fraction(10)}
_EX2_F1 = {2: Fraction(14875, 162), 4: Fraction(92500, 243), 6: Fraction(553985, 1701)}
_EX2_F2 = {10: Fraction(260315, 10206), 14: Fraction(113693, 47628), 18: Fraction(2509, 142884)}
_EX2_F3 = {8: Fraction(2725, 1134), 12: Fraction(1438825, 142884), 16: Fraction(89189, 285768)}
_EX2_ASIN = {1: Fraction(1750, 81), 3: Fraction(1000, 3), 5: Fraction(14800, 21),
             7: Fraction(800, 3), 9: Fraction(20)}
# The square-root factor F1 + F2 - F3 of the printed 2d form, summed exactly
_EX2_SQRT = {k: _EX2_F1.get(k, 0) + _EX2_F2.get(k, 0) - _EX2_F3.get(k, 0)
             for k in {*_EX2_F1, *_EX2_F2, *_EX2_F3}}

_EX3_POLY = {2: Fraction(1701, 143), 3: Fraction(-25515, 572), 4: Fraction(8505, 143),
             5: Fraction(-8505, 208), 6: Fraction(567, 11), 7: Fraction(-6237, 104),
             8: Fraction(9), 9: Fraction(201285, 9152), 11: Fraction(-181629, 18304),
             13: Fraction(16443, 6656), 15: Fraction(-6075, 18304),
             17: Fraction(10899, 585728)}
_ex3_polynomial = lru_cache(maxsize=64)(partial(ball_polynomial, _EX3_POLY))

_EX4_POLY = {3: Fraction(56, 3), 5: Fraction(48), 7: Fraction(8)}
_EX4_SQRT = {4: Fraction(196, 3), 6: Fraction(114, 5), 8: Fraction(28, 15),
             10: Fraction(-4, 5), 12: Fraction(2, 9), 14: Fraction(-1, 45)}
_EX4_ASIN = {3: Fraction(112, 3), 5: Fraction(96), 7: Fraction(16)}


def _theta_factors(asin: dict, root: dict, radius: float) -> tuple:
    """The exact factors (asin - 2 root, root) of ``_theta_form`` on the ball."""
    d = {k: asin.get(k, 0) - 2 * root.get(k, 0) for k in {*asin, *root}}
    return ball_polynomial(d, radius), ball_polynomial(root, radius)


_ex2_factors = lru_cache(maxsize=64)(partial(_theta_factors, _EX2_ASIN, _EX2_SQRT))
_ex4_factors = lru_cache(maxsize=64)(partial(_theta_factors, _EX4_ASIN, _EX4_SQRT))

# (-1)^k / (2k + 3)!, k <= 10: theta - sin(theta) = theta^3 sum_k c_k theta^(2k)
# to below 2^-53 relative for theta <= pi/2
_THETA_MINUS_SIN = np.array([float(Fraction((-1) ** k, math.factorial(2 * k + 3)))
                             for k in range(11)])


def _theta_form(factors: tuple, geometry: BallGeometry, s):
    """A printed form poly - sqrt(4R^2 - s^2) root / (pi R) - asin(s/2R) asin / pi
    whose asin table is 2 poly, as in both: with theta = acos(s/2R), it is
    (theta (asin - 2 root) + 2 (theta - sin theta) root) / pi, two terms that
    cancel far less than the three printed ones, most of all near 2R.
    theta - sin theta is summed as its Taylor series."""
    s = _as_support(geometry, s)
    d, root = factors
    theta = 2.0 * np.arcsin(np.sqrt((geometry.diameter - s) / geometry.radius) / 2.0)
    theta2 = theta * theta  # products, not **, which rounds a numpy scalar differently
    tms = np.polynomial.polynomial.polyval(theta2, _THETA_MINUS_SIN) * theta2 * theta
    out = (theta * d(s) + 2.0 * tms * root(s)) / math.pi
    return out if np.ndim(out) else float(out)


def pdf_example_2d(geometry: BallGeometry, s):
    """P_2(s) for the density rho ~ x^4 y^4 in a disc (closed form), summed
    by ``_theta_form``; s a float or an ndarray."""
    if geometry.dimension != 2:
        raise UnsupportedError("this closed form is for n = 2")
    return _theta_form(_ex2_factors(geometry.radius), geometry, s)


def pdf_example_3d(geometry: BallGeometry, s):
    """P_3(s) for the density rho ~ x^2 y^2 z^2 in a 3-ball, a degree-17
    polynomial summed by ``PiecewisePolynomial``; s a float or an ndarray."""
    if geometry.dimension != 3:
        raise UnsupportedError("this closed form is for n = 3")
    return _ex3_polynomial(geometry.radius)(_as_support(geometry, s))


def pdf_example_4d(geometry: BallGeometry, s):
    """P_4(s) for the density rho ~ x_1^4 in a 4-ball (closed form), summed
    by ``_theta_form``; s a float or an ndarray."""
    if geometry.dimension != 4:
        raise UnsupportedError("this closed form is for n = 4")
    return _theta_form(_ex4_factors(geometry.radius), geometry, s)
