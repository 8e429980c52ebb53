"""Seeded samplers, histograms, and the chi-square comparison engine."""
import math

import numpy as np
import pytest
from scipy import stats

from nballdist import (
    BallGeometry,
    CartesianMonomial,
    DistanceHistogram,
    DomainError,
    EfficiencyError,
    Gaussian,
    GaussianBall,
    GeneralCartesian,
    InsufficientDataError,
    InvalidDensityError,
    MultiShell,
    PdfCurve,
    RadialPolynomial,
    SamplerConfig,
    Uniform,
    compare,
    empirical_pair_pdf,
    merge_histograms,
    pdf_gaussian,
    pdf_uniform,
    sample_density,
    sample_uniform_ball,
)
from nballdist._rng import CounterStream
from nballdist.montecarlo import chi_square_survival

G3 = BallGeometry(3, 1.0)


# ---------------------------------------------------------------------------
# Generator core
# ---------------------------------------------------------------------------

def test_counter_stream_determinism_and_statelessness():
    a = CounterStream(123, 4).uniforms(1000)
    b = CounterStream(123, 4).uniforms(1000)
    assert np.array_equal(a, b)
    # any slice can be regenerated from the bare counter
    s = CounterStream(123, 4)
    s.uniforms(600)
    tail = s.uniforms(400)
    assert np.array_equal(tail, a[600:])


def test_counter_stream_separation():
    a = CounterStream(1, 0).uniforms(1000)
    b = CounterStream(1, 1).uniforms(1000)
    c = CounterStream(2, 0).uniforms(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_counter_stream_normals_moments():
    z = CounterStream(7, 0).normals(200_000)
    assert np.mean(z) == pytest.approx(0.0, abs=0.01)
    assert np.var(z) == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_uniform_ball_containment_and_volume():
    pts = sample_uniform_ball(G3, SamplerConfig(seed=42, count=100_000))
    r = np.linalg.norm(pts, axis=1)
    assert np.max(r) <= 1.0
    frac = np.mean(r <= 0.5)
    sigma = math.sqrt(0.125 * 0.875 / len(r))
    assert abs(frac - 0.125) <= 3.0 * sigma


def test_uniform_ball_1d_mean_distance():
    g1 = BallGeometry(1, 1.0)
    pts = sample_uniform_ball(g1, SamplerConfig(seed=9, count=200_000))
    x = pts[: 100_000, 0]
    y = pts[100_000:, 0]
    assert np.mean(x) == pytest.approx(0.0, abs=3.0 * np.std(x) / math.sqrt(len(x)))
    d = np.abs(x - y)
    assert abs(np.mean(d) - 2.0 / 3.0) <= 3.0 * np.std(d) / math.sqrt(len(d))


def test_sampler_bit_identical():
    cfg = SamplerConfig(seed=2024, count=5000, stream_id=3)
    assert np.array_equal(sample_uniform_ball(G3, cfg), sample_uniform_ball(G3, cfg))
    dens = RadialPolynomial((0, 0, 1))
    assert np.array_equal(sample_density(G3, dens, cfg), sample_density(G3, dens, cfg))


def test_uniform_density_equals_uniform_sampler():
    cfg = SamplerConfig(seed=5, count=1000)
    assert np.array_equal(sample_density(G3, Uniform(), cfg), sample_uniform_ball(G3, cfg))


def test_r2_density_radial_cdf():
    # rho ~ r^2 in 3d gives radial CDF r^5
    pts = sample_density(G3, RadialPolynomial((0, 0, 1)), SamplerConfig(seed=1, count=100_000))
    r = np.sort(np.linalg.norm(pts, axis=1))
    d = np.max(np.abs(r ** 5 - np.arange(1, len(r) + 1) / len(r)))
    assert d < 1.63 / math.sqrt(len(r))


def test_gaussian_sampler_moment():
    pts = sample_density(G3, Gaussian(1.0), SamplerConfig(seed=2, count=100_000))
    r2 = np.sum(pts * pts, axis=1)
    assert abs(np.mean(r2) - 3.0) <= 3.0 * np.std(r2) / math.sqrt(len(r2))


def test_multishell_sampler_mass_split():
    sh = MultiShell((0.5, 1.0), (1.0, 2.0))
    pts = sample_density(G3, sh, SamplerConfig(seed=3, count=200_000))
    r = np.linalg.norm(pts, axis=1)
    inner = np.mean(r <= 0.5)
    want = 0.125 / (0.125 + 2.0 * 0.875)
    assert abs(inner - want) <= 3.0 * math.sqrt(want * (1 - want) / len(r))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_multishell_sampler_radial_cdf(n):
    # shell masses grow as r^n, so F(r) = sum_k rho_k (min(r, r_k)^n - r_{k-1}^n) / total
    g = BallGeometry(n, 1.0)
    pts = sample_density(g, MultiShell((0.5, 1.0), (1.0, 2.0)), SamplerConfig(seed=3, count=100_000))
    r = np.sort(np.linalg.norm(pts, axis=1))
    mass = np.where(r <= 0.5, r ** n, 0.5 ** n + 2.0 * (r ** n - 0.5 ** n))
    cdf = mass / (0.5 ** n + 2.0 * (1.0 - 0.5 ** n))
    d = np.max(np.abs(cdf - np.arange(1, len(r) + 1) / len(r)))
    assert d < 1.63 / math.sqrt(len(r))


def test_monomial_sampler_symmetry():
    pts = sample_density(BallGeometry(2, 1.0), CartesianMonomial((4, 4)),
                         SamplerConfig(seed=8, count=50_000))
    assert np.max(np.linalg.norm(pts, axis=1)) <= 1.0
    assert np.mean(pts[:, 0]) == pytest.approx(0.0, abs=0.01)
    assert np.mean(np.sign(pts[:, 0]) * np.sign(pts[:, 1])) == pytest.approx(0.0, abs=0.02)


@pytest.mark.parametrize("exps", [(4, 0, 0, 0), (2, 2, 2)])
def test_monomial_sampler_dirichlet_marginals(exps):
    # y_i = x_i^2 / R^2 is a Dirichlet marginal: Beta(a_i, sum(a) - a_i + 1)
    R = 1.3
    pts = sample_density(BallGeometry(len(exps), R), CartesianMonomial(exps),
                         SamplerConfig(seed=3, count=40_000))
    a = [(e + 1) / 2.0 for e in exps]
    for i, ai in enumerate(a):
        law = stats.beta(ai, sum(a) - ai + 1.0)
        assert stats.kstest(pts[:, i] ** 2 / R ** 2, law.cdf).pvalue > 1e-3, i


@pytest.mark.parametrize("exps", [(4, 0, 0, 0), (2, 2, 2)])
def test_monomial_sampler_sign_symmetry(exps):
    count = 40_000
    pts = sample_density(BallGeometry(len(exps), 1.0), CartesianMonomial(exps),
                         SamplerConfig(seed=4, count=count))
    for i in range(len(exps)):
        x = pts[:, i]
        assert abs(np.count_nonzero(x > 0) - count / 2) < 2.0 * math.sqrt(count), i
        # the sign is independent of the magnitude
        assert stats.ks_2samp(x[x > 0], -x[x < 0]).pvalue > 1e-3, i


def test_monomial_sampler_exponent_count():
    with pytest.raises(InvalidDensityError):
        sample_density(G3, CartesianMonomial((2, 2)), SamplerConfig(seed=1, count=10))


def test_rejection_efficiency_error():
    # a density bounded by a huge constant but equal to a tiny value
    nearly_zero = GeneralCartesian(lambda pts: np.full(pts.shape[0], 1e-12), bound=1.0)
    with pytest.raises(EfficiencyError):
        sample_density(G3, nearly_zero, SamplerConfig(seed=1, count=10_000))


def test_bad_bound_detected():
    lying = GeneralCartesian(lambda pts: np.ones(pts.shape[0]), bound=0.1)
    with pytest.raises(Exception):
        sample_density(G3, lying, SamplerConfig(seed=1, count=100))


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

def test_histogram_counts_and_density_normalization():
    hist = empirical_pair_pdf(G3, Uniform(), pairs=20_000, bins=32,
                              config=SamplerConfig(seed=42, count=0))
    assert hist.total == 20_000
    assert np.sum(hist.empirical_density * hist.widths) == pytest.approx(1.0, rel=1e-12)
    assert hist.edges[0] == 0.0 and hist.edges[-1] == 2.0


def test_histogram_peak_near_mode():
    hist = empirical_pair_pdf(G3, Uniform(), pairs=200_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    peak = mids[int(np.argmax(hist.counts))]
    assert abs(peak - 1.049) < 0.1  # mode of the n = 3 closed form


def test_histogram_gaussian_peak():
    g = BallGeometry(3, 8.0)
    hist = empirical_pair_pdf(g, Gaussian(1.0), pairs=100_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    peak = mids[int(np.argmax(hist.counts))]
    assert abs(peak - 2.0) < 0.3


def test_histogram_preconditions():
    with pytest.raises(DomainError):
        empirical_pair_pdf(G3, Uniform(), pairs=10, bins=32, config=SamplerConfig(seed=1, count=0))
    with pytest.raises(DomainError):
        empirical_pair_pdf(G3, Uniform(), pairs=5000, bins=4, config=SamplerConfig(seed=1, count=0))


def test_histogram_determinism_and_merge():
    cfg = SamplerConfig(seed=7, count=0, stream_id=2)
    h1 = empirical_pair_pdf(G3, Uniform(), pairs=5000, bins=16, config=cfg)
    h2 = empirical_pair_pdf(G3, Uniform(), pairs=5000, bins=16, config=cfg)
    assert np.array_equal(h1.counts, h2.counts)
    h3 = empirical_pair_pdf(G3, Uniform(), pairs=5000, bins=16,
                            config=SamplerConfig(seed=7, count=0, stream_id=5))
    merged = merge_histograms(h1, h3)
    assert merged.total == 10_000
    assert np.array_equal(merge_histograms(h3, h1).counts, merged.counts)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def test_compare_self_consistency():
    hist = empirical_pair_pdf(G3, Uniform(), pairs=100_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    report = compare(hist, lambda s: pdf_uniform(G3, s))
    assert report.p_value > 0.001
    assert report.dof == report.bins_used - 1
    assert report.max_abs_deviation < 0.05


def test_compare_power():
    hist = empirical_pair_pdf(BallGeometry(2, 1.0), Uniform(), pairs=100_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    wrong = compare(hist, lambda s: pdf_uniform(BallGeometry(3, 1.0), s))
    assert wrong.p_value < 1e-6


def test_compare_degenerate_zero_support():
    hist = empirical_pair_pdf(G3, Uniform(), pairs=20_000, bins=32,
                              config=SamplerConfig(seed=42, count=0))
    halfball = BallGeometry(3, 0.5)  # analytic support [0, 1]; counts exist beyond
    report = compare(hist, lambda s: np.where(s <= 1.0, pdf_uniform(halfball, np.minimum(s, 1.0)),
                                              0.0))
    assert report.p_value == 0.0
    assert math.isinf(report.chi_square)


def test_compare_accepts_curves():
    hist = empirical_pair_pdf(G3, Uniform(), pairs=50_000, bins=32,
                              config=SamplerConfig(seed=42, count=0))
    grid = np.linspace(0.0, 2.0, 801)
    curve = PdfCurve(grid, np.array([pdf_uniform(G3, float(s)) for s in grid]),
                     meta={"source": "closed form"})
    assert compare(hist, curve).p_value > 0.001


def test_compare_insufficient_data():
    edges = np.linspace(0.0, 2.0, 9)
    hist = DistanceHistogram(edges=edges, counts=np.zeros(8, dtype=np.int64))
    with pytest.raises(InsufficientDataError):
        compare(hist, lambda s: pdf_uniform(G3, s))


def test_substream_concatenation_matches_single_stream():
    # four substreams of 25k pairs pass the same acceptance as one 100k stream
    parts = [empirical_pair_pdf(G3, Uniform(), pairs=25_000, bins=64,
                                config=SamplerConfig(seed=31, count=0, stream_id=k))
             for k in range(4)]
    merged = merge_histograms(*parts)
    single = empirical_pair_pdf(G3, Uniform(), pairs=100_000, bins=64,
                                config=SamplerConfig(seed=31, count=0))
    analytic = lambda s: pdf_uniform(G3, s)
    assert compare(merged, analytic).p_value > 0.001
    assert compare(single, analytic).p_value > 0.001
    assert merged.total == single.total


def test_chi_square_survival_sanity():
    assert chi_square_survival(0.0, 10) == 1.0
    assert chi_square_survival(math.inf, 10) == 0.0
    # median of chi2 with k dof is roughly k - 2/3
    assert 0.4 < chi_square_survival(9.33, 10) < 0.6


def test_gaussian_compare_against_closed_form():
    g = BallGeometry(3, 8.0)
    hist = empirical_pair_pdf(g, Gaussian(1.0), pairs=100_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    gb = GaussianBall(3, 1.0)
    report = compare(hist, lambda s: pdf_gaussian(gb, s))
    assert report.p_value > 0.001
