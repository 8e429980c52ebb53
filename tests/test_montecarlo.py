"""Seeded samplers, histograms, and the chi-square comparison engine."""
import hashlib
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
    ParabolicRadial,
    PrecisionError,
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
import reference_forms as ref
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


@pytest.mark.parametrize("n", [2, 4])
def test_multishell_sampler_refuses_shells_beyond_the_ball(n):
    with pytest.raises(InvalidDensityError):
        sample_density(BallGeometry(n, 1.0), MultiShell((0.5, 2.0), (1.0, 1.0)),
                       SamplerConfig(seed=3, count=10))


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


@pytest.mark.parametrize("exps", [(0, 0, 0), (0, 2, 0), (60, 0), (0,), (2, 0, 0, 0, 0, 0, 0, 0, 0)])
def test_monomial_sampler_zero_and_large_exponents(exps):
    # an exponent of 0 adds no exponential to its coordinate, and 60 adds 30,
    # summed as logs (a product of that many uniforms can go subnormal)
    R = 1.3
    pts = sample_density(BallGeometry(len(exps), R), CartesianMonomial(exps),
                         SamplerConfig(seed=5, count=40_000))
    assert np.all(np.isfinite(pts)) and np.max(np.linalg.norm(pts, axis=1)) <= R
    a = [(e + 1) / 2.0 for e in exps]
    for i in {0, len(exps) - 1}:
        law = stats.beta(a[i], sum(a) - a[i] + 1.0)
        assert stats.kstest(pts[:, i] ** 2 / R ** 2, law.cdf).pvalue > 1e-3, i


def _radial_cdf(q, n):
    """CDF of t = r/R on [0, 1] for the profile sum_k q_k t^k in n dimensions."""
    def cdf(t):
        return sum(c * t ** (n + k) / (n + k) for k, c in enumerate(q)) / \
            sum(c / (n + k) for k, c in enumerate(q))
    return cdf


@pytest.mark.parametrize("n,density,q", [
    (1, RadialPolynomial((0, 0, 1)), (0, 0, 1)),
    (2, RadialPolynomial((0, 0, 1)), (0, 0, 1)),
    (3, RadialPolynomial((0, 0, 1)), (0, 0, 1)),
    (6, RadialPolynomial((0, 0, 1)), (0, 0, 1)),
    (4, ParabolicRadial(0.5), (1, 0, -0.5)),
    (4, RadialPolynomial((1, 2, -3)), (1, 2, -3)),  # maximum at r = R/3
], ids=["r2-n1", "r2-n2", "r2-n3", "r2-n6", "parabolic-n4", "interior-max-n4"])
def test_radial_rejection_radii_and_directions(n, density, q):
    # radii against the exact radial CDF, directions against the uniform
    # sphere, whose coordinate x_i/|x| has (1 + x_i/|x|)/2 ~ Beta((n-1)/2, (n-1)/2);
    # n = 2, 3 and 4 take their directions from disk points, n = 1 and 6 from normals
    R = 1.0 if isinstance(density, RadialPolynomial) else 1.3
    pts = sample_density(BallGeometry(n, R), density, SamplerConfig(seed=11, count=100_000))
    r = np.linalg.norm(pts, axis=1)
    assert np.max(r) <= R
    assert stats.kstest(r / R, _radial_cdf(q, n)).pvalue > 1e-3
    if n == 1:
        assert abs(np.count_nonzero(pts > 0) - 50_000) < 2.0 * math.sqrt(100_000)
        return
    law = stats.beta((n - 1) / 2.0, (n - 1) / 2.0)
    for i in (0, n - 1):
        assert stats.kstest((1.0 + pts[:, i] / r) / 2.0, law.cdf).pvalue > 1e-3, i
    # the direction is independent of the radius
    inner = r < np.median(r)
    assert stats.ks_2samp(pts[inner, 0] / r[inner], pts[~inner, 0] / r[~inner]).pvalue > 1e-3


@pytest.mark.parametrize("k", [-600, -200, 200, 600])
@pytest.mark.parametrize("density", [RadialPolynomial((0, 0, 1)), ParabolicRadial(0.5)],
                         ids=["r2", "parabolic"])
def test_radial_rejection_is_scale_free(density, k):
    # radii are drawn and accepted on the unit ball, so a ball of radius 2^k
    # holds exactly 2^k times the points of the unit ball; at k = +-600 the
    # bound of the profile in absolute units left the double range
    cfg = SamplerConfig(seed=42, count=20_000, stream_id=3)
    want = sample_density(G3, density, cfg)
    np.testing.assert_array_equal(sample_density(BallGeometry(3, 2.0 ** k), density, cfg),
                                  np.ldexp(want, k))


def test_monomial_sampler_exponent_count():
    with pytest.raises(InvalidDensityError):
        sample_density(G3, CartesianMonomial((2, 2)), SamplerConfig(seed=1, count=10))


def test_rejection_efficiency_error():
    # a density bounded by a huge constant but equal to a tiny value
    nearly_zero = GeneralCartesian(lambda pts: np.full(pts.shape[0], 1e-12), bound=1.0)
    with pytest.raises(EfficiencyError):
        sample_density(G3, nearly_zero, SamplerConfig(seed=1, count=10_000))


@pytest.mark.parametrize("coeffs,top", [((2.0, 0.0, 1.0, 0.0, -1.0), 2.25),
                                        ((1.0, 0.0, 1.0, 0.0, -1.0), 1.25),
                                        ((1.0, 2.0, -3.0), 4.0 / 3.0)])
def test_radial_polynomial_bound_covers_interior_maximum(coeffs, top):
    # a grid of 4097 radii alone missed these maxima by 4e-9 to 1.4e-8,
    # beyond the sampler's 1e-9 check on every candidate
    from nballdist.core import density_bound
    bound = density_bound(RadialPolynomial(coeffs), BallGeometry(4, 1.0))
    assert top <= bound <= top * (1.0 + 2e-9)


def test_radial_r2_bound_unchanged():
    # its maximum sits at r = R, on the grid: the mc_rejection stream stays put
    from nballdist.core import density_bound
    assert density_bound(RadialPolynomial((0.0, 0.0, 1.0)), G3) == 1.0 * (1.0 + 1e-9) + 1e-300


@pytest.mark.parametrize("radius,k", [(0.75 * 2.0 ** -300, 600), (0.75 * 2.0 ** 300, -600),
                                      (3.0 * 2.0 ** -300, 600), (3.0 * 2.0 ** 300, -600)])
def test_radial_r2_bound_scales_exactly(radius, k):
    # the bound is taken on the unit ball and scaled back by a power of two
    from nballdist.core import density_bound
    r2 = RadialPolynomial((0.0, 0.0, 1.0))
    bound = density_bound(r2, BallGeometry(3, radius))
    assert density_bound(r2, BallGeometry(3, math.ldexp(radius, k))) == math.ldexp(bound, 2 * k)


@pytest.mark.parametrize("radius", [1e160, 1e-170])
def test_radial_r2_bound_outside_the_double_range(radius):
    # R^2 is 1e320 and 1e-340: it was inf, and the 1e-300 floor
    from nballdist.core import density_bound
    with pytest.raises(PrecisionError):
        density_bound(RadialPolynomial((0.0, 0.0, 1.0)), BallGeometry(3, radius))


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


@pytest.mark.parametrize("k", [-600, -40, 40, 600])
@pytest.mark.parametrize("density", ["uniform", "gauss"])
def test_histogram_counts_are_scale_free_at_extreme_radii(density, k):
    # the points and edges of a ball of radius 2^k R are those of radius R
    # times 2^k, so the counts are the same, although at k = +-600 the squared
    # distances leave the double range
    def counts(scale):
        if density == "uniform":
            g, model = BallGeometry(3, scale), Uniform()
        else:
            g, model = BallGeometry(3, 8.0 * scale), Gaussian(scale)
        return empirical_pair_pdf(g, model, pairs=20_000, bins=32,
                                  config=SamplerConfig(seed=42, count=0)).counts
    want = counts(1.0)
    assert want[0] < want.sum()
    np.testing.assert_array_equal(counts(2.0 ** k), want)


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
    # a tabulated curve enters compare as the array callable of its interpolant
    hist = empirical_pair_pdf(G3, Uniform(), pairs=50_000, bins=32,
                              config=SamplerConfig(seed=42, count=0))
    grid = np.linspace(0.0, 2.0, 801)
    vals = pdf_uniform(G3, grid)
    assert compare(hist, lambda s: np.interp(s, grid, vals)).p_value > 0.001


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


@pytest.mark.parametrize("dof", [1, 7, 63, 343, 344, 392, 1000, 2000])
def test_chi_square_survival_against_scipy(dof):
    for chi2 in dof * np.array([0.05, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0]):
        assert chi_square_survival(float(chi2), dof) == pytest.approx(
            stats.chi2.sf(chi2, dof), rel=1e-12)


def test_gaussian_compare_against_closed_form():
    g = BallGeometry(3, 8.0)
    hist = empirical_pair_pdf(g, Gaussian(1.0), pairs=100_000, bins=64,
                              config=SamplerConfig(seed=42, count=0))
    gb = GaussianBall(3, 1.0)
    report = compare(hist, lambda s: pdf_gaussian(gb, s))
    assert report.p_value > 0.001


# ---------------------------------------------------------------------------
# Blocked sampling and histograms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_row_sumsq_matches_np_sum(n):
    from nballdist.montecarlo import _row_sumsq
    rng = np.random.default_rng(n)
    z = rng.standard_normal((5003, n)) * rng.uniform(0.0, 1e3, (5003, 1))
    assert np.array_equal(_row_sumsq(z), np.sum(z * z, axis=1))


@pytest.mark.parametrize("n", range(1, 10))
def test_core_row_sumsq_matches_np_sum_on_every_shape(n):
    from nballdist.core import _row_sumsq
    rng = np.random.default_rng(100 + n)
    for shape in ((997, n), (n,), (7, 11, n)):
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        got, want = _row_sumsq(z), np.sum(z * z, axis=-1)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want), shape


def test_pair_histogram_matches_one_shot_histogram():
    from nballdist.montecarlo import _rows_per_block, pair_histogram
    edges = np.linspace(0.0, 2.0, 65)
    pairs = 2 * _rows_per_block(1) + 501  # three blocks
    rng = np.random.default_rng(3)
    # second points at distance exactly on every edge (both ends included),
    # the rest anywhere in [-1, 1]
    first = rng.uniform(-1.0, 1.0, pairs)
    first[:65] = -1.0
    second = rng.uniform(-1.0, 1.0, pairs)
    second[:65] = edges - 1.0
    points = np.concatenate([first, second])[:, None]
    dist = np.abs(second - first)
    assert np.count_nonzero(np.isin(dist, edges)) >= 65
    hist = pair_histogram(points, pairs, edges)
    want, _ = np.histogram(dist, bins=edges)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, want) and hist.total == pairs


@pytest.mark.parametrize("n", [2, 3, 9])
def test_pair_histogram_matches_one_shot_distances(n):
    from nballdist.montecarlo import pair_histogram
    pts = sample_uniform_ball(BallGeometry(n, 1.0), SamplerConfig(seed=9, count=2 * 20_011))
    edges = np.linspace(0.0, 2.0, 41)
    d = np.sqrt(np.sum((pts[20_011:] - pts[:20_011]) ** 2, axis=1))
    assert np.array_equal(pair_histogram(pts, 20_011, edges).counts, np.histogram(d, bins=edges)[0])


def test_uniform_ball_scratch_memory_is_bounded():
    import tracemalloc
    from nballdist.montecarlo import _uniform_ball_points
    stream = CounterStream(2)
    tracemalloc.start()
    try:
        _uniform_ball_points(BallGeometry(3), stream, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # the 3e6 coordinates take 23 MB; whole-array passes peaked at 112 MB
    assert peak < 56


# ---------------------------------------------------------------------------
# Pair windows against the whole-batch oracle
# ---------------------------------------------------------------------------

def _window_cases():
    from nballdist.montecarlo import _pairs_per_window
    shells = MultiShell((0.3, 0.6, 1.0), (3.0, 1.0, 2.0))
    models = ([(n, Uniform(), lambda n, c: ref.uniform_ball_batch(n, 1.5, 42, 3, c))
               for n in (1, 2, 3, 5, 8, 9)]
              + [(3, Gaussian(1.3), lambda n, c: ref.gaussian_batch(n, 1.3, 42, 3, c))]
              + [(n, shells, lambda n, c: ref.shells_batch(n, shells.radii, shells.densities,
                                                         42, 3, c)) for n in (3, 4)]
              + [(len(e), CartesianMonomial(e),
                  lambda n, c, e=e: ref.monomial_batch(e, 1.5, 42, 3, c))
                 for e in ((4, 4), (2, 2, 2), (0, 6, 0, 2), (60, 0))])
    for n, density, oracle in models:
        w = _pairs_per_window(n)
        name = type(density).__name__
        if isinstance(density, CartesianMonomial):
            name += "-" + "-".join(map(str, density.exponents))
        for pairs in (1000, w - 1, w, w + 1, 3 * w + 7):
            yield pytest.param(n, density, oracle, pairs, id=f"{name}-n{n}-pairs{pairs}")


@pytest.mark.parametrize("n,density,oracle,pairs", _window_cases())
def test_pair_windows_match_the_whole_batch_oracle(n, density, oracle, pairs):
    from nballdist.montecarlo import PairWindow, _pairs_per_window, substream_histogram
    g = BallGeometry(n, 1.5)
    whole = oracle(n, 2 * pairs)
    step = _pairs_per_window(n)
    for lo in range(0, pairs, step):
        hi = min(lo + step, pairs)
        got = sample_density(g, density, SamplerConfig(42, 2 * pairs, 3, PairWindow(lo, hi)))
        assert np.array_equal(got, np.concatenate([whole[lo:hi], whole[pairs + lo:pairs + hi]]))
    # the whole batch is unchanged too, and so is the streamed histogram
    assert np.array_equal(sample_density(g, density, SamplerConfig(42, 2 * pairs, 3)), whole)
    edges = np.linspace(0.0, g.diameter, 33)
    d = np.sqrt(np.sum((whole[pairs:] - whole[:pairs]) ** 2, axis=1))
    hist = substream_histogram(g, density, SamplerConfig(42, 2 * pairs, 3), edges)
    assert np.array_equal(hist.counts, np.histogram(d, bins=edges)[0])


@pytest.mark.parametrize("n", [1, 3])
def test_odd_counts_keep_the_whole_batch(n):
    # the middle row of an odd batch takes normals from both halves of the
    # layout, below and from m = ceil(kn/2); it is drawn whole
    g = BallGeometry(n, 1.5)
    got = sample_density(g, Uniform(), SamplerConfig(42, 2001, 3))
    assert np.array_equal(got, ref.uniform_ball_batch(n, 1.5, 42, 3, 2001))


def test_window_requests_are_checked():
    from nballdist.montecarlo import PairWindow
    for count, lo, hi in ((2001, 0, 10), (2000, 10, 10), (2000, -1, 5), (2000, 990, 1001)):
        with pytest.raises(DomainError):
            SamplerConfig(42, count, 0, PairWindow(lo, hi))
    # rejection samplers draw whole batches only
    for density in (RadialPolynomial((0, 0, 1)),):
        with pytest.raises(DomainError):
            sample_density(G3, density, SamplerConfig(42, 2000, 0, PairWindow(0, 10)))
    # monomial samplers serve windows
    assert sample_density(G3, CartesianMonomial((2, 2, 2)),
                          SamplerConfig(42, 2000, 0, PairWindow(0, 10))).shape == (20, 3)


def test_window_draws_only_its_own_words():
    # pairs [lo, hi) of 2P points in n dimensions: normals at counters n[lo, hi)
    # and m + n[lo, hi) with m = Pn, radii at 2m + [lo, hi) and 2m + P + [lo, hi)
    from nballdist.montecarlo import PairWindow
    calls = []
    words = CounterStream.words

    def counting(stream, k):
        calls.append((stream.counter, k))
        return words(stream, k)
    n, P, lo, hi = 3, 1000, 100, 250
    CounterStream.words = counting
    try:
        sample_density(G3, Uniform(), SamplerConfig(42, 2 * P, 0, PairWindow(lo, hi)))
    finally:
        CounterStream.words = words
    m = P * n
    assert calls == [(n * lo, n * (hi - lo)), (m + n * lo, n * (hi - lo)),
                     (2 * m + lo, hi - lo), (2 * m + P + lo, hi - lo)]


# Seed-42 counts, the first six recorded before pair windows existed: any
# change to the stream, a sampler or the pair layout changes them.
PINNED_COUNTS = [
    (BallGeometry(1), Uniform(), [679, 608, 510, 472, 331, 222, 138, 40]),
    (BallGeometry(3), Uniform(), [39, 225, 488, 650, 695, 554, 294, 55]),
    (BallGeometry(9), Uniform(), [0, 3, 78, 386, 974, 1120, 410, 29]),
    (BallGeometry(3, 8.0), Gaussian(1.0), [1310, 1549, 139, 2, 0, 0, 0, 0]),
    (BallGeometry(3), MultiShell((0.5, 1.0), (1.0, 2.0)), [37, 207, 452, 624, 649, 608, 362, 61]),
    (BallGeometry(4), MultiShell((0.3, 0.6, 1.0), (3.0, 1.0, 2.0)),
     [8, 97, 368, 592, 781, 730, 365, 59]),
    # one normal per coordinate and unit exponentials: chi-square 2.69, 7 dof,
    # against pdf_example_3d
    (BallGeometry(3), CartesianMonomial((2, 2, 2)), [78, 208, 192, 382, 613, 682, 577, 268]),
    # radii rejected on the unit ball, directions from points of the unit disk
    (BallGeometry(3), RadialPolynomial((0, 0, 1)), [52, 237, 347, 499, 607, 692, 450, 116]),
    (BallGeometry(4), ParabolicRadial(0.5), [8, 119, 418, 706, 802, 651, 260, 36]),
]


@pytest.mark.parametrize("g,density,counts", PINNED_COUNTS,
                         ids=[f"{type(d).__name__}-n{g.dimension}" for g, d, _ in PINNED_COUNTS])
def test_pinned_seed_42_histograms(g, density, counts):
    hist = empirical_pair_pdf(g, density, 3000, 8, SamplerConfig(42, 0))
    assert hist.counts.tolist() == counts


@pytest.mark.parametrize("n,digest", [
    (2, "8c9189655680169e1932db26d5247a5692ca74c1398e3f672debaea9d09e49e9"),
    (3, "60e9a5084c3d675c82a5fc22b172df6a748b79d62977d4ad3011ef5fac76be89"),
])
def test_pinned_seed_42_general_cartesian_points(n, digest):
    # the uniform-ball proposal of a GeneralCartesian: the radial profiles'
    # directions moved to disk points, and this stream must not move with them
    tilt = GeneralCartesian(lambda pts: 1.0 + pts[:, 0] * pts[:, -1], bound=2.0)
    pts = sample_density(BallGeometry(n), tilt, SamplerConfig(42, 5000))
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("g,density,counts", [
    (BallGeometry(3), Uniform(), [253, 1520, 3179, 4389, 4620, 3640, 2030, 380]),
    (BallGeometry(3, 8.0), Gaussian(1.0), [8499, 10557, 943, 12, 0, 0, 0, 0]),
    (BallGeometry(3), MultiShell((0.5, 1.0), (1.0, 2.0)),
     [248, 1474, 2810, 4130, 4565, 4061, 2267, 456]),
], ids=["uniform", "gauss", "shells"])
def test_pinned_seed_42_parallel_histograms(g, density, counts):
    from nballdist.cli import empirical_pair_pdf_parallel
    for threads in (1, 2):
        hist = empirical_pair_pdf_parallel(g, density, 20011, 8, 42, max_workers=threads)
        assert hist.counts.tolist() == counts


@pytest.mark.parametrize("g,density,pairs", [
    (BallGeometry(3), Uniform(), 4_000_000),
    (BallGeometry(3, 8.0), Gaussian(1.0), 4_000_000),
    (BallGeometry(3), MultiShell((0.5, 1.0), (1.0, 2.0)), 4_000_000),
    (BallGeometry(9), Uniform(), 4_000_000),
    (BallGeometry(3), Uniform(), 8_000_000),
], ids=["uniform3-4e6", "gauss-4e6", "shells-4e6", "uniform9-4e6", "uniform3-8e6"])
def test_pair_histogram_memory_does_not_grow_with_pairs(g, density, pairs):
    # whole substreams peaked at 12.0 / 12.0 / 15.8 / 34.9 MiB at 4e6 pairs;
    # windows hold about 131072 numbers whatever the pair count
    import tracemalloc
    from nballdist.cli import empirical_pair_pdf_parallel
    tracemalloc.start()
    try:
        hist = empirical_pair_pdf_parallel(g, density, pairs, 64, 42, max_workers=1)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert hist.total <= pairs
    assert peak <= 4.0
