"""Seeded sampling of points in n-balls, pair-distance histograms, and
chi-square comparison of empirical against analytic densities.

Uniform, Gaussian, shell and Cartesian-monomial densities are sampled
directly; radial polynomials, the parabolic profile and ``GeneralCartesian``
callbacks are sampled by rejection against the uniform ball.

Sampling is deterministic: a ``SamplerConfig`` fixes (seed, stream_id, count)
and the same configuration always reproduces the same batch bit for bit.
Substreams with distinct stream ids are independent, and histogram merging is
associative and commutative, so parallel runs give identical results
regardless of how the work is split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import CounterStream
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
    density_bound,
    density_value,
    inc_gamma_upper,
    log_gamma,
)

__all__ = [
    "SamplerConfig",
    "DistanceHistogram",
    "ComparisonReport",
    "PdfCurve",
    "sample_uniform_ball",
    "sample_density",
    "empirical_pair_pdf",
    "merge_histograms",
    "compare",
    "chi_square_survival",
]

_REJECTION_CHUNK = 16384  # fixed so rejection sampling consumes words deterministically
# Points per block of the monomial sampler. Blocks bound the normals' scratch
# arrays to 4096 x (|e| + n + 2) doubles whatever the count; the block size
# also fixes how the stream is consumed, so changing it changes the samples.
_MONOMIAL_BLOCK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling request: (seed, stream_id, count)."""
    seed: int
    count: int
    stream_id: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise DomainError("count must be >= 0")
        if self.seed < 0 or self.stream_id < 0:
            raise DomainError("seed and stream_id must be non-negative")


@dataclass(frozen=True)
class PdfCurve:
    """PDF samples on a grid, with provenance metadata."""
    s: np.ndarray
    density: np.ndarray
    meta: dict = field(default_factory=dict)


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


def _uniform_ball_points(geometry: BallGeometry, stream: CounterStream, count: int) -> np.ndarray:
    n, R = geometry.dimension, geometry.radius
    z = stream.normals(count * n).reshape(count, n)
    norm = np.sqrt(np.sum(z * z, axis=1))
    norm[norm == 0.0] = 1.0
    radii = R * stream.uniforms(count) ** (1.0 / n)
    return z * (radii / norm)[:, None]


def sample_uniform_ball(geometry: BallGeometry, config: SamplerConfig) -> np.ndarray:
    """i.i.d. uniform points in the ball: isotropic Gaussian direction scaled
    by R * U^(1/n). Returns an array of shape (count, n)."""
    return _uniform_ball_points(geometry, _stream_for(config), config.count)


def _multishell_points(geometry: BallGeometry, model: MultiShell,
                       stream: CounterStream, count: int) -> np.ndarray:
    n = geometry.dimension
    radii = np.array([float(r) for r in model.radii])
    dens = np.array([float(d) for d in model.densities])
    rn = np.concatenate([[0.0], radii ** n])
    mass = dens * np.diff(rn)
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    total = cum[-1]
    v = stream.uniforms(count) * total
    idx = np.clip(np.searchsorted(cum, v, side="right") - 1, 0, len(dens) - 1)
    # zero-density shells carry no mass, but guard the division anyway
    safe = np.where(dens[idx] > 0.0, dens[idx], 1.0)
    r = (rn[idx] + (v - cum[idx]) / safe) ** (1.0 / n)
    z = stream.normals(count * n).reshape(count, n)
    norm = np.sqrt(np.sum(z * z, axis=1))
    norm[norm == 0.0] = 1.0
    return z * (r / norm)[:, None]


def _monomial_points(geometry: BallGeometry, model: CartesianMonomial,
                     stream: CounterStream, count: int) -> np.ndarray:
    """prod x_i^{e_i} on the ball: y_i = x_i^2 / R^2 is Dirichlet((e_i+1)/2,
    ..., (e_n+1)/2, 1) with independent signs (Barthe, Guedon, Mendelson and
    Naor 2005). Every e_i is even, so each shape is a half-integer and each
    Gamma(k/2) variate is half a sum of k squared normals: e_i + 1 normals per
    coordinate plus 2 for the slack. The sign of x_i is that of its group's
    first normal, which is independent of the group's sum of squares."""
    n, R = geometry.dimension, geometry.radius
    exps = model.exponents
    if len(exps) != n:
        raise InvalidDensityError("exponent count does not match point dimension")
    sizes = [e + 1 for e in exps] + [2]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    width = sum(sizes)
    out = np.empty((count, n))
    for lo in range(0, count, _MONOMIAL_BLOCK):
        m = min(_MONOMIAL_BLOCK, count - lo)
        z = stream.normals(m * width).reshape(m, width)
        gam = np.add.reduceat(z * z, starts, axis=1)
        total = np.sum(gam, axis=1)
        out[lo:lo + m] = np.copysign(R * np.sqrt(gam[:, :n] / total[:, None]),
                                     z[:, starts[:n]])
    return out


def _rejection_points(geometry: BallGeometry, density: DensityModel,
                      stream: CounterStream, count: int) -> np.ndarray:
    bound = density_bound(density, geometry)
    out = np.empty((count, geometry.dimension))
    got = 0
    proposals = 0
    while got < count:
        cand = _uniform_ball_points(geometry, stream, _REJECTION_CHUNK)
        u = stream.uniforms(_REJECTION_CHUNK)
        vals = density_value(density, cand, geometry)
        if np.any(vals < -1e-12 * bound):
            raise InvalidDensityError("density is negative at sampled points")
        if np.any(vals > bound * (1.0 + 1e-9)):
            raise InvalidDensityError("density exceeds its certified bound")
        keep = cand[u * bound < vals]
        take = min(len(keep), count - got)
        out[got:got + take] = keep[:take]
        got += take
        proposals += _REJECTION_CHUNK
        if proposals >= 2_000_000 and got / proposals < 1e-6:
            raise EfficiencyError(
                f"rejection acceptance rate {got / proposals:.2e} after "
                f"{proposals} proposals (bound={bound:.3e}); "
                "supply a tighter bound or a direct sampler")
    return out


def sample_density(geometry: BallGeometry, density: DensityModel,
                   config: SamplerConfig) -> np.ndarray:
    """Points distributed proportionally to ``density``.

    Uniform, Gaussian (radial chi sampling via n normals), MultiShell
    (inverse CDF on the piecewise r^n radial mass) and CartesianMonomial
    (Dirichlet law of the squared coordinates, from sums of squared normals)
    are sampled directly. RadialPolynomial, ParabolicRadial and
    GeneralCartesian are sampled by rejection against the uniform-ball
    proposal with the model's certified bound.
    """
    stream = _stream_for(config)
    n = geometry.dimension
    if isinstance(density, Uniform):
        return _uniform_ball_points(geometry, stream, config.count)
    if isinstance(density, Gaussian):
        return density.sigma * stream.normals(config.count * n).reshape(config.count, n)
    if isinstance(density, MultiShell):
        return _multishell_points(geometry, density, stream, config.count)
    if isinstance(density, CartesianMonomial):
        return _monomial_points(geometry, density, stream, config.count)
    if isinstance(density, (RadialPolynomial, ParabolicRadial, GeneralCartesian)):
        return _rejection_points(geometry, density, stream, config.count)
    raise InvalidDensityError(f"no sampler for {type(density).__name__}")


# ---------------------------------------------------------------------------
# Histograms and comparison
# ---------------------------------------------------------------------------

def empirical_pair_pdf(geometry: BallGeometry, density: DensityModel,
                       pairs: int, bins: int, config: SamplerConfig) -> DistanceHistogram:
    """Histogram of |x2 - x1| for ``pairs`` independent point pairs.

    Draws 2*pairs points (points of a pair are independent), bins the
    distances on uniform edges over [0, 2R]. With unbounded densities
    (Gaussian) the negligible mass beyond 2R is dropped.
    """
    if pairs < 1000:
        raise DomainError("need at least 1000 pairs for a meaningful histogram")
    if bins < 8:
        raise DomainError("need at least 8 bins")
    cfg = SamplerConfig(seed=config.seed, count=2 * pairs, stream_id=config.stream_id)
    pts = sample_density(geometry, density, cfg)
    d = np.sqrt(np.sum((pts[pairs:] - pts[:pairs]) ** 2, axis=1))
    edges = np.linspace(0.0, geometry.diameter, bins + 1)
    counts, _ = np.histogram(d, bins=edges)
    return DistanceHistogram(edges=edges, counts=counts.astype(np.int64))


def merge_histograms(*hists: DistanceHistogram) -> DistanceHistogram:
    first = hists[0]
    for h in hists[1:]:
        if not np.array_equal(h.edges, first.edges):
            raise DomainError("histograms have different binning")
    counts = np.sum([h.counts for h in hists], axis=0)
    return DistanceHistogram(edges=first.edges, counts=counts.astype(np.int64))


def chi_square_survival(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution,
    Q(dof/2, chi2/2) through the incomplete gamma kernel."""
    if chi2 <= 0.0:
        return 1.0
    if math.isinf(chi2):
        return 0.0
    return inc_gamma_upper(dof / 2.0, chi2 / 2.0) / math.exp(log_gamma(dof / 2.0))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_trapz = getattr(np, "trapezoid", None) or np.trapz  # numpy 2.x rename


def _bin_masses(hist: DistanceHistogram, analytic) -> np.ndarray:
    """Expected probability mass per bin from the analytic density."""
    lo, hi = hist.edges[:-1], hist.edges[1:]
    if isinstance(analytic, PdfCurve):
        grid = np.asarray(analytic.s, dtype=float)
        vals = np.asarray(analytic.density, dtype=float)
        masses = np.empty(len(lo))
        for i in range(len(lo)):
            xs = np.linspace(lo[i], hi[i], 33)
            masses[i] = _trapz(np.interp(xs, grid, vals), xs)
        return masses
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    xs = mid + half * _GL_NODES[None, :]
    vals = np.asarray(analytic(xs), dtype=float)
    return np.sum(vals * _GL_WEIGHTS[None, :], axis=1) * half[:, 0]


def compare(histogram: DistanceHistogram, analytic) -> ComparisonReport:
    """Pearson chi-square of the histogram against an analytic density.

    ``analytic`` is either a PdfCurve or an array callable: it is called
    once, with the (bins, 20) array of Gauss-Legendre nodes, and must return
    the density at every node in that shape (``resolve_evaluator`` routes,
    ``pdf_uniform``, ``PiecewisePolynomial`` and the other closed forms do;
    a scalar-only function does not). Expected bin masses come from
    quadrature of the analytic PDF over each bin; the
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
