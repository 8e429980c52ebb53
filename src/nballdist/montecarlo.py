"""Seeded sampling of points in n-balls, pair-distance histograms, and
chi-square comparison of empirical against analytic densities.

Uniform, Gaussian, shell and Cartesian-monomial densities are sampled
directly. Radial polynomials and the parabolic profile are sampled by
rejection of radii on the unit ball, and each kept radius then draws a
direction: from points of the unit disk at n = 2, 3 and 4, from n normals
otherwise. ``GeneralCartesian`` callbacks are sampled by rejection against
the uniform ball.

Sampling is deterministic: a ``SamplerConfig`` fixes (seed, stream_id, count)
and the same configuration always reproduces the same batch bit for bit.
Substreams with distinct stream ids are independent, and histogram merging is
associative and commutative, so parallel runs give identical results
regardless of how the work is split.

Normals come from the ziggurat of ``_rng``, normal e of a draw from word
c + e alone (its rare slow path reads a companion sequence keyed by that
counter). A batch of 2P points is binned as the P pairs (x[i], x[P + i]).
Since the stream is counter-based, the direct samplers (uniform, Gaussian,
shells, monomials) can draw any pair window [lo, hi) alone: rows [lo, hi)
stacked over rows P + [lo, hi), from exactly their own words. ``substream_histogram``
walks a substream window by window, so for direct samplers memory is bounded
by the window (about 4 ``_rng._BLOCK`` numbers, plus sum(e)/2 + 1 uniforms
per point for a monomial), whatever the pair count. The rejection samplers
draw and hold their whole substream; a radial profile draws only a radius and
an acceptance uniform per proposal, and a direction for each kept point.
Window and block sizes change no output bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from ._rng import _BLOCK, CounterStream
from .core import (
    BallGeometry,
    CartesianMonomial,
    DensityModel,
    DomainError,
    EfficiencyError,
    Gaussian,
    GeneralCartesian,
    InsufficientDataError,
    InvalidDensityError,
    MultiShell,
    ParabolicRadial,
    RadialPolynomial,
    Uniform,
    _row_sumsq,
    _scaled_coefficients,
    density_bound,
    density_value,
)

__all__ = [
    "SamplerConfig",
    "PairWindow",
    "DistanceHistogram",
    "ComparisonReport",
    "sample_uniform_ball",
    "sample_density",
    "empirical_pair_pdf",
    "pair_histogram",
    "substream_histogram",
    "merge_histograms",
    "compare",
    "chi_square_survival",
]

_REJECTION_CHUNK = 16384  # fixed so rejection sampling consumes words deterministically


@dataclass(frozen=True)
class PairWindow:
    """Pairs [lo, hi) of a batch of 2P points: rows [lo, hi) stacked over
    rows P + [lo, hi), bit for bit those rows of the whole batch.

    ``rows``, if given, is float64 scratch of at least 2 (hi - lo) n elements
    that the sampler writes the window's points into, so a caller walking a
    batch window by window reuses one array."""
    lo: int
    hi: int
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling request: (seed, stream_id, count), and
    optionally one ``PairWindow`` of the batch of count = 2P points."""
    seed: int
    count: int
    stream_id: int = 0
    window: PairWindow | None = None

    def __post_init__(self):
        if self.count < 0:
            raise DomainError("count must be >= 0")
        if self.seed < 0 or self.stream_id < 0:
            raise DomainError("seed and stream_id must be non-negative")
        w = self.window
        if w is not None and (self.count % 2 or not 0 <= w.lo < w.hi <= self.count // 2):
            raise DomainError(f"pairs [{w.lo}, {w.hi}) are not a window of {self.count} points")


@dataclass(frozen=True)
class DistanceHistogram:
    """Uniform-width histogram of pair distances over [0, 2R]."""
    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def empirical_density(self) -> np.ndarray:
        return self.counts / (self.total * self.widths)


@dataclass(frozen=True)
class ComparisonReport:
    chi_square: float
    dof: int
    p_value: float
    max_abs_deviation: float
    bins_used: int
    total: int

    def to_json_dict(self) -> dict:
        return {
            "chi_square": self.chi_square,
            "dof": self.dof,
            "p_value": self.p_value,
            "max_abs_deviation": self.max_abs_deviation,
            "bins_used": self.bins_used,
            "total_pairs": self.total,
        }


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _stream_for(config: SamplerConfig) -> CounterStream:
    return CounterStream(config.seed, config.stream_id)


def _scale_rows(z: np.ndarray, radii: np.ndarray) -> None:
    """z[i] *= radii[i] / |z[i]| in place (a zero row keeps its zeros);
    ``radii`` is overwritten."""
    norm = np.sqrt(_row_sumsq(z))
    norm[norm == 0.0] = 1.0
    np.divide(radii, norm, out=radii)
    z *= radii[:, None]


def _rows_per_block(n: int) -> int:
    return max(1, _BLOCK // n)


def _normal_rows(stream: CounterStream, n: int, count: int, window) -> np.ndarray:
    """The next count x n normals as rows, or the rows of a pair window: a
    batch of 2P rows takes 2m = 2Pn words, one per normal, and row i holds
    the normals of words [n i, n i + n), row P + i those of m + [n i, n i + n)."""
    if window is None:
        return stream.normals(count * n).reshape(-1, n)
    size = 2 * n * (window.hi - window.lo)
    out = None if window.rows is None else window.rows[:size]
    return stream.normals(count * n, window=(n * window.lo, n * window.hi),
                          out=out).reshape(-1, n)


def _bounds(window):
    return None if window is None else (window.lo, window.hi)


def _uniform_ball_points(geometry: BallGeometry, stream: CounterStream, count: int,
                         window=None) -> np.ndarray:
    n, R = geometry.dimension, geometry.radius
    z = _normal_rows(stream, n, count, window)
    # a window's radii are two runs of words; a whole batch draws its radii
    # block by block, so they never take a count-sized array
    radii = None if window is None else stream.uniforms(count, window=_bounds(window))
    rows = _rows_per_block(n)
    for lo in range(0, len(z), rows):
        zb = z[lo:lo + rows]
        u = stream.uniforms(len(zb)) if radii is None else radii[lo:lo + rows]
        _scale_rows(zb, R * u ** (1.0 / n))
    return z


def sample_uniform_ball(geometry: BallGeometry, config: SamplerConfig) -> np.ndarray:
    """i.i.d. uniform points in the ball: isotropic Gaussian direction scaled
    by R * U^(1/n). Returns an array of shape (count, n)."""
    return _uniform_ball_points(geometry, _stream_for(config), config.count)


def _multishell_points(geometry: BallGeometry, model: MultiShell,
                       stream: CounterStream, count: int, window=None) -> np.ndarray:
    n = geometry.dimension
    radii = np.array([float(r) for r in model.radii])
    if radii[-1] > geometry.radius:
        raise InvalidDensityError(f"outermost shell boundary {radii[-1]} exceeds R = {geometry.radius}")
    dens = np.array([float(d) for d in model.densities])
    rn = np.concatenate([[0.0], radii ** n])
    mass = dens * np.diff(rn)
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    # zero-density shells carry no mass, but guard the division anyway
    safe = np.where(dens > 0.0, dens, 1.0)
    u = stream.uniforms(count, window=_bounds(window))
    z = _normal_rows(stream, n, count, window)
    rows = _rows_per_block(n)
    for lo in range(0, len(z), rows):
        v = u[lo:lo + rows] * cum[-1]
        idx = np.clip(np.searchsorted(cum, v, side="right") - 1, 0, len(dens) - 1)
        _scale_rows(z[lo:lo + rows], (rn[idx] + (v - cum[idx]) / safe[idx]) ** (1.0 / n))
    return z


def _monomial_points(geometry: BallGeometry, model: CartesianMonomial,
                     stream: CounterStream, count: int, window=None) -> np.ndarray:
    """prod x_i^{e_i} on the ball: y_i = x_i^2 / R^2 is Dirichlet((e_i+1)/2,
    ..., (e_n+1)/2, 1) with independent signs (Barthe, Guedon, Mendelson and
    Naor 2005). Every e_i is even, so Gamma((e_i+1)/2) is z_i^2/2 plus e_i/2
    unit exponentials, and the slack Gamma(1) is one more; each exponential
    is -log(1 - U) (Devroye 1986, Non-Uniform Random Variate Generation,
    ch. IX). The sign of x_i is that of z_i, which is independent of z_i^2.

    A point takes n normals, the rows of ``_normal_rows``, and then k =
    sum(e)/2 + 1 uniforms as a row of its own, after all the normals: the
    e_i/2 of each coordinate in turn, then the slack's. Row i of both
    layouts is drawn alone for a pair window, so a window is bit for bit
    those rows of the whole batch. Each coordinate adds its exponentials to
    z_i^2/2 in turn, and the total adds the coordinates in turn and then the
    slack, so no sum depends on the block."""
    n, R = geometry.dimension, geometry.radius
    exps = model.exponents
    if len(exps) != n:
        raise InvalidDensityError("exponent count does not match point dimension")
    k = sum(exps) // 2 + 1
    z = _normal_rows(stream, n, count, window)
    # as in _uniform_ball_points, a whole batch draws its uniforms block by block
    unif = None if window is None else stream.uniforms(
        count * k, window=(k * window.lo, k * window.hi)).reshape(-1, k)
    rows = _rows_per_block(n + k)
    for lo in range(0, len(z), rows):
        zb = z[lo:lo + rows]
        u = stream.uniforms(len(zb) * k).reshape(-1, k) if unif is None else unif[lo:lo + rows]
        np.subtract(1.0, u, out=u)  # (0, 1], keeps the log finite
        np.log(u, out=u)  # minus the exponentials
        g = np.multiply(zb, zb)
        g *= 0.5
        col = 0
        for i, e in enumerate(exps):
            for _ in range(e // 2):
                g[:, i] -= u[:, col]
                col += 1
        total = g[:, 0].copy()
        for i in range(1, n):
            total += g[:, i]
        total -= u[:, col]
        np.divide(g, total[:, None], out=g)
        np.sqrt(g, out=g)
        g *= R
        np.copysign(g, zb, out=zb)
    return z


def _disk_points(stream: CounterStream, count: int) -> tuple:
    """The next ``count`` points uniform in the unit disk, as (v1, v2, s),
    s = v1^2 + v2^2. Each batch draws m pairs v = 2U - 1, the m values of v1
    and then the m of v2, about 1.3 times the points still needed (pi/4 of
    the pairs fall in the disk) plus 16, and keeps those with 0 < s < 1 in
    order."""
    v1, v2, s = np.empty(count), np.empty(count), np.empty(count)
    got = 0
    while got < count:
        need = count - got
        m = need + need * 3 // 10 + 16
        u = stream.uniforms(2 * m)
        u *= 2.0
        u -= 1.0
        a, b = u[:m], u[m:]
        r = a * a
        r += b * b
        keep = np.flatnonzero((r > 0.0) & (r < 1.0))[:need]
        k = len(keep)
        v1[got:got + k] = a[keep]
        v2[got:got + k] = b[keep]
        s[got:got + k] = r[keep]
        got += k
    return v1, v2, s


def _disk_directions(stream: CounterStream, rows: np.ndarray) -> None:
    """Uniform directions on the sphere S^(n-1), n = 2, 3 or 4, written into
    the (k, n) ``rows`` from points v of the unit disk, with no trigonometry
    (Marsaglia 1972, Ann. Math. Statist. 43:645): v / sqrt(s) on the circle,
    (2 v1 sqrt(1 - s), 2 v2 sqrt(1 - s), 1 - 2 s) on S^2, and on S^3
    (v1, v2, w1 c, w2 c) with w the next k disk points and
    c = sqrt((1 - s) / s_w)."""
    k, n = rows.shape
    v1, v2, s = _disk_points(stream, k if n < 4 else 2 * k)
    if n == 2:
        np.sqrt(s, out=s)
        np.divide(v1, s, out=rows[:, 0])
        np.divide(v2, s, out=rows[:, 1])
    elif n == 3:
        np.multiply(s, -2.0, out=rows[:, 2])
        rows[:, 2] += 1.0
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)
        s *= 2.0
        np.multiply(v1, s, out=rows[:, 0])
        np.multiply(v2, s, out=rows[:, 1])
    else:
        rows[:, 0] = v1[:k]
        rows[:, 1] = v2[:k]
        c = np.subtract(1.0, s[:k])
        c /= s[k:]
        np.sqrt(c, out=c)
        np.multiply(v1[k:], c, out=rows[:, 2])
        np.multiply(v2[k:], c, out=rows[:, 3])


def _rejection_points(geometry: BallGeometry, density: DensityModel,
                      stream: CounterStream, count: int) -> np.ndarray:
    """Rejection sampling against the model's certified bound.

    A radial profile is sampled on the unit ball, against the bound of its
    profile there (``_scaled_coefficients`` for a radial polynomial), so
    that neither the bound nor the values leave the double range at any R.
    Each chunk draws the radii t = U^(1/n) of its proposals, then their
    acceptance uniforms, and accepts on rho(t) alone, evaluated on (m, 1)
    rows of t (|t| is t exactly). Only the kept radii then draw a direction,
    and their points are R t times it: at n = 2, 3 and 4 from points of the
    unit disk (``_disk_directions``), written into the output rows and
    scaled column by column, and otherwise from n normals each. A
    ``GeneralCartesian`` proposes uniform points of the ball itself."""
    n, R = geometry.dimension, geometry.radius
    radial = not isinstance(density, GeneralCartesian)
    model, on = density, geometry
    if radial:
        on = BallGeometry(n, 1.0)
        if isinstance(density, RadialPolynomial):
            model = RadialPolynomial(_scaled_coefficients(density, R)[0])
    bound = density_bound(model, on)
    out = np.empty((count, n))
    got = 0
    proposals = 0
    while got < count:
        if radial:
            u = stream.uniforms(2 * _REJECTION_CHUNK)
            cand = u[:_REJECTION_CHUNK, None] ** (1.0 / n)
            u = u[_REJECTION_CHUNK:]
        else:
            cand = _uniform_ball_points(geometry, stream, _REJECTION_CHUNK)
            u = stream.uniforms(_REJECTION_CHUNK)
        vals = density_value(model, cand, on)
        if np.any(vals < -1e-12 * bound):
            raise InvalidDensityError("density is negative at sampled points")
        if np.any(vals > bound * (1.0 + 1e-9)):
            raise InvalidDensityError("density exceeds its certified bound")
        keep = cand[u * bound < vals][:count - got]
        k = len(keep)
        if radial and 2 <= n <= 4:
            rows = out[got:got + k]
            _disk_directions(stream, rows)
            rt = R * keep[:, 0]
            for j in range(n):
                rows[:, j] *= rt
        elif radial:
            z = _normal_rows(stream, n, k, None)
            _scale_rows(z, R * keep[:, 0])
            out[got:got + k] = z
        else:
            out[got:got + k] = keep
        got += k
        proposals += _REJECTION_CHUNK
        if proposals >= 2_000_000 and got / proposals < 1e-6:
            raise EfficiencyError(
                f"rejection acceptance rate {got / proposals:.2e} after "
                f"{proposals} proposals (bound={bound:.3e}); "
                "supply a tighter bound or a direct sampler")
    return out


# Densities whose samplers draw any pair window alone. The rejection samplers
# cannot: row i depends on every accepted row before it.
_WINDOWED = (Uniform, Gaussian, MultiShell, CartesianMonomial)


def sample_density(geometry: BallGeometry, density: DensityModel,
                   config: SamplerConfig) -> np.ndarray:
    """Points distributed proportionally to ``density``.

    Uniform, Gaussian (radial chi sampling via n normals), MultiShell
    (inverse CDF on the piecewise r^n radial mass) and CartesianMonomial
    (Dirichlet law of the squared coordinates, from one normal per
    coordinate and unit exponentials) are sampled directly, and serve a
    ``config.window``. RadialPolynomial and ParabolicRadial are sampled by
    rejection of radii on the unit ball, with directions drawn for the kept
    radii only (from unit-disk points at n = 2, 3 and 4, from n normals
    otherwise); GeneralCartesian by rejection against the uniform-ball
    proposal. Both use the model's certified bound and draw whole batches.
    """
    stream = _stream_for(config)
    n, count, window = geometry.dimension, config.count, config.window
    if window is not None and not isinstance(density, _WINDOWED):
        raise DomainError(f"{type(density).__name__} has no pair-window sampler")
    if isinstance(density, Uniform):
        return _uniform_ball_points(geometry, stream, count, window)
    if isinstance(density, Gaussian):
        z = _normal_rows(stream, n, count, window)
        z *= density.sigma
        return z
    if isinstance(density, MultiShell):
        return _multishell_points(geometry, density, stream, count, window)
    if isinstance(density, CartesianMonomial):
        return _monomial_points(geometry, density, stream, count, window)
    if isinstance(density, (RadialPolynomial, ParabolicRadial, GeneralCartesian)):
        return _rejection_points(geometry, density, stream, count)
    raise InvalidDensityError(f"no sampler for {type(density).__name__}")


# ---------------------------------------------------------------------------
# Histograms and comparison
# ---------------------------------------------------------------------------

def check_histogram_request(pairs: int, bins: int) -> None:
    if pairs < 1000:
        raise DomainError("need at least 1000 pairs for a meaningful histogram")
    if bins < 8:
        raise DomainError("need at least 8 bins")


def pair_histogram(points: np.ndarray, pairs: int, edges: np.ndarray,
                   counts: np.ndarray | None = None) -> DistanceHistogram:
    """Histogram on ``edges`` of |points[pairs + i] - points[i]|, i < pairs.

    Distances are formed and binned a block of rows at a time; the counts are
    those of one ``np.histogram`` over all the distances, bit for bit. Given
    ``counts`` (int64), they are added into it, and the histogram holds it.
    Distances are binned in units of the power of two that brings the last
    edge (2R) into [1/2, 1): the differences and the edges are scaled by it,
    so that squared distances up to the last edge stay in the double range
    at every R (one whose square still underflows lies deep in the first
    bin). The scaling is exact and moves no distance across an edge.
    """
    n = points.shape[1]
    rows = _rows_per_block(n)
    if counts is None:
        counts = np.zeros(len(edges) - 1, dtype=np.int64)
    shift = -math.frexp(float(edges[-1]))[1]
    bins = np.ldexp(edges, shift)
    for lo in range(0, pairs, rows):
        hi = min(lo + rows, pairs)
        d = points[pairs + lo:pairs + hi] - points[lo:hi]
        np.ldexp(d, shift, out=d)
        dist = _row_sumsq(d)
        np.sqrt(dist, out=dist)
        counts += np.histogram(dist, bins=bins)[0]
    return DistanceHistogram(edges=edges, counts=counts)


# Pairs per window: two row blocks, so a window holds about 4 _BLOCK numbers
# (2n per pair, 1 MB of points) and splits into whole blocks at every stage.
# Each window costs about a hundred numpy calls, and pool threads hand the
# interpreter lock over at each one; windows of one _BLOCK made two-thread
# runs about 20% slower. Every window draws exactly its own words of the
# substream, so the window size changes no output bit.
_ROW_BLOCKS_PER_WINDOW = 2


def _pairs_per_window(n: int) -> int:
    return _ROW_BLOCKS_PER_WINDOW * _rows_per_block(n)


def substream_histogram(geometry: BallGeometry, density: DensityModel,
                        config: SamplerConfig, edges: np.ndarray) -> DistanceHistogram:
    """Histogram on ``edges`` of the config.count // 2 pair distances
    |x[P + i] - x[i]| of one substream's batch of config.count = 2P points.

    Direct samplers are drawn and binned one pair window at a time, so memory
    is bounded by the window; rejection samplers draw the whole batch first.
    The counts are the same either way, bit for bit.
    """
    pairs = config.count // 2
    if not isinstance(density, _WINDOWED) or pairs == 0:
        return pair_histogram(sample_density(geometry, density, config), pairs, edges)
    n = geometry.dimension
    step = _pairs_per_window(n)
    # one histogram and one array of points serve every window
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    rows = np.empty(2 * n * step)
    for lo in range(0, pairs, step):
        hi = min(lo + step, pairs)
        window = replace(config, window=PairWindow(lo, hi, rows))
        hist = pair_histogram(sample_density(geometry, density, window), hi - lo, edges, counts)
    return hist


def empirical_pair_pdf(geometry: BallGeometry, density: DensityModel,
                       pairs: int, bins: int, config: SamplerConfig) -> DistanceHistogram:
    """Histogram of |x2 - x1| for ``pairs`` independent point pairs.

    Draws 2*pairs points (points of a pair are independent), bins the
    distances on uniform edges over [0, 2R]. With unbounded densities
    (Gaussian) the negligible mass beyond 2R is dropped.
    """
    check_histogram_request(pairs, bins)
    cfg = SamplerConfig(seed=config.seed, count=2 * pairs, stream_id=config.stream_id)
    return substream_histogram(geometry, density, cfg,
                               np.linspace(0.0, geometry.diameter, bins + 1))


def merge_histograms(*hists: DistanceHistogram) -> DistanceHistogram:
    first = hists[0]
    for h in hists[1:]:
        if not np.array_equal(h.edges, first.edges):
            raise DomainError("histograms have different binning")
    counts = np.sum([h.counts for h in hists], axis=0)
    return DistanceHistogram(edges=first.edges, counts=counts.astype(np.int64))


def chi_square_survival(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution, the regularized
    Q(dof/2, chi2/2), which stays in range for every dof."""
    return float(special.gammaincc(dof / 2.0, max(chi2, 0.0) / 2.0))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _bin_masses(hist: DistanceHistogram, analytic) -> np.ndarray:
    """Expected probability mass per bin: 20-node Gauss-Legendre quadrature
    of the array callable ``analytic``, called once on the (bins, 20) nodes."""
    lo, hi = hist.edges[:-1], hist.edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    xs = mid + half * _GL_NODES[None, :]
    vals = np.asarray(analytic(xs), dtype=float)
    return np.sum(vals * _GL_WEIGHTS[None, :], axis=1) * half[:, 0]


def compare(histogram: DistanceHistogram, analytic) -> ComparisonReport:
    """Pearson chi-square of the histogram against an analytic density.

    ``analytic`` is an array callable: it is called once, with the
    (bins, 20) array of Gauss-Legendre nodes, and must return the density at
    every node in that shape (``resolve_evaluator`` routes, ``pdf_uniform``,
    ``PiecewisePolynomial``, the other closed forms and an ``np.interp`` of
    a tabulated curve do; a scalar-only function does not). Expected bin
    masses come from that quadrature of the analytic PDF over each bin; the
    statistic runs over bins with expected count >= 5 and dof is that bin
    count minus one. Counts observed where the analytic density carries no
    mass make the statistic degenerate and force p = 0.
    """
    total = histogram.total
    masses = _bin_masses(histogram, analytic)
    expected = total * np.clip(masses, 0.0, None)
    observed = histogram.counts.astype(float)

    degenerate = (expected < 1e-9) & (observed > 0)
    if np.any(degenerate):
        return ComparisonReport(chi_square=math.inf, dof=0, p_value=0.0,
                                max_abs_deviation=float("inf"),
                                bins_used=0, total=total)
    use = expected >= 5.0
    bins_used = int(np.count_nonzero(use))
    if bins_used < 2:
        raise InsufficientDataError("fewer than two bins have expected count >= 5")
    chi2 = float(np.sum((observed[use] - expected[use]) ** 2 / expected[use]))
    dof = bins_used - 1
    p = chi_square_survival(chi2, dof)
    dev = np.abs(histogram.empirical_density - masses / histogram.widths)
    return ComparisonReport(chi_square=chi2, dof=dof, p_value=p,
                            max_abs_deviation=float(np.max(dev)),
                            bins_used=bins_used, total=total)
