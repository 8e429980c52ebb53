"""Moments, self-energies, and geometric constants."""
import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nballdist import (
    BallGeometry,
    DivergentMomentError,
    DomainError,
    GaussianBall,
    PrecisionError,
    SamplerConfig,
    SelfEnergySpec,
    UnsupportedError,
    coulomb_gaussian_pair_energy,
    coulomb_gaussian_self_energy,
    coulomb_pair_energy,
    coulomb_self_energy,
    cumulative_c,
    dot_constant,
    moment_gaussian,
    moment_hardcore,
    moment_uniform,
    neutrino_self_energy_gaussian,
    neutrino_self_energy_uniform,
    pdf_gaussian,
    pdf_uniform,
    sample_uniform_ball,
)
from nballdist.applications import moment_uniform_gamma_forms

G3 = BallGeometry(3, 1.0)

PRINTED_N3_MOMENTS = {-2: F(9, 4), -1: F(6, 5), 1: F(36, 35), 2: F(6, 5),
                      3: F(32, 21), 4: F(72, 35), 5: F(32, 11)}


def test_printed_n3_moment_list():
    for m, want in PRINTED_N3_MOMENTS.items():
        assert moment_uniform(G3, m) == pytest.approx(float(want), abs=1e-12)


def test_moment_zero_is_one():
    for n in range(1, 7):
        assert moment_uniform(BallGeometry(n, 2.3), 0) == 1.0


def test_moment_divergence_guard():
    with pytest.raises(DivergentMomentError):
        moment_uniform(G3, -3)
    with pytest.raises(DivergentMomentError):
        moment_uniform(BallGeometry(1, 1.0), -1)


def test_moment_scaling_in_radius():
    for m in (-2, 1, 3):
        assert moment_uniform(BallGeometry(3, 2.0), m) == pytest.approx(
            moment_uniform(G3, m) * 2.0 ** m, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_moment_forms_and_quadrature_agree(n):
    g = BallGeometry(n, 1.0)
    for m in range(-(n - 1), 7):
        v = moment_uniform(g, m)
        f1, f2 = moment_uniform_gamma_forms(g, m)
        assert f1 == pytest.approx(v, rel=1e-10)
        assert f2 == pytest.approx(v, rel=1e-10)
        # C-function route
        ratio = cumulative_c(g, 2.0, m) / cumulative_c(g, 2.0, 0)
        assert ratio == pytest.approx(v, rel=1e-10)
        # quadrature route
        want, _ = quad(lambda s: s ** m * pdf_uniform(g, s), 0.0, 2.0,
                       epsabs=1e-12, limit=400)
        assert v == pytest.approx(want, abs=1e-8 * max(1.0, abs(v)))


def test_moment_gaussian_values():
    assert moment_gaussian(3, 1.0, 2) == pytest.approx(6.0, rel=1e-13)
    assert moment_gaussian(5, 2.0, 0) == 1.0
    assert moment_gaussian(2, 1.0, -1) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
    with pytest.raises(DivergentMomentError):
        moment_gaussian(3, 1.0, -3)


def test_moment_gaussian_against_quadrature():
    gb = GaussianBall(3, 0.7)
    for m in (-2, -1, 1, 2, 4):
        want, _ = quad(lambda s: s ** m * pdf_gaussian(gb, s), 0.0, np.inf, limit=400)
        assert moment_gaussian(3, 0.7, m) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Hard-core moments
# ---------------------------------------------------------------------------

def test_hardcore_limit_recovers_uniform():
    assert moment_hardcore(G3, 1e-6, 1) == pytest.approx(36.0 / 35.0, abs=1e-9)
    assert moment_hardcore(G3, 0.37, 0) == 1.0


@pytest.mark.parametrize("m,rc", [(-5, 0.01), (-5, 0.3), (-2, 0.1), (-1, 0.05),
                                  (1, 0.5), (2, 0.2), (3, 0.7), (-7, 0.2)])
def test_hardcore_matches_quadrature(m, rc):
    num, _ = quad(lambda s: s ** m * pdf_uniform(G3, s), rc, 2.0, epsabs=1e-13, limit=400)
    den, _ = quad(lambda s: pdf_uniform(G3, s), rc, 2.0, epsabs=1e-13, limit=400)
    assert moment_hardcore(G3, rc, m) == pytest.approx(num / den, rel=1e-8)


def test_hardcore_deep_orders():
    # (n+1+m)/2 = -1000.5 continues the incomplete beta a thousand steps down
    g = BallGeometry(3, 0.5)
    num, _ = quad(lambda s: s ** -2005 * pdf_uniform(g, s), 0.95, 1.0, epsabs=0.0,
                  epsrel=1e-12, limit=400)
    den, _ = quad(lambda s: pdf_uniform(g, s), 0.95, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    assert moment_hardcore(g, 0.95, -2005) == pytest.approx(num / den, rel=1e-9)
    with pytest.raises(PrecisionError):
        moment_hardcore(G3, 1.9, -3001)  # about 1e-837, below double range


@pytest.mark.parametrize("call", [
    lambda: moment_uniform(BallGeometry(3, 1e200), 5),
    lambda: moment_uniform(BallGeometry(3, 1e-200), 5),
    lambda: moment_gaussian(3, 1e200, 5),
    lambda: moment_gaussian(3, 1e-200, -2),
])
def test_moments_beyond_the_double_range(call):
    # R ** m raised a raw OverflowError, or underflowed to 0
    with pytest.raises(PrecisionError):
        call()


def test_moments_in_range_through_log_space():
    # the direct products overflow or underflow; the moments do not
    g = BallGeometry(1100, 1.0)
    assert moment_uniform(g, 1) == pytest.approx(moment_uniform_gamma_forms(g, 1)[0], rel=1e-12)
    # (2 sigma)^m = 50^399 overflows; Gamma(1/2) / Gamma(200) brings it back
    want = mp.mpf(0.02) ** -399 * mp.gamma(0.5) / mp.gamma(200)
    assert moment_gaussian(400, 0.01, -399) == pytest.approx(float(want), rel=1e-12)


def test_hardcore_guards():
    with pytest.raises(DomainError):
        moment_hardcore(G3, 2.0, 1)
    with pytest.raises(DomainError):
        moment_hardcore(G3, 0.0, 1)
    # m + n = 0 (a logarithm) and (n+1+m)/2 = 0 (a beta-function pole of the
    # continued closed form) are finite moments like any other order
    assert moment_hardcore(G3, 0.5, -3) == pytest.approx(1.40278720060151, rel=1e-12)
    assert moment_hardcore(G3, 0.5, -4) == pytest.approx(1.90443133867930, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hardcore_pole_orders_against_mpmath(n):
    # the orders m = -n, -(n+1), -(n+3) that a continued beta form cannot reach
    with mp.workdps(30):
        def pdf(s):
            return n * s ** (n - 1) * mp.betainc(mp.mpf(n + 1) / 2, 0.5, 0, 1 - s * s / 4,
                                                 regularized=True)
        for rc in (0.1, 1.5):
            den = mp.quad(pdf, [rc, 2])
            for m in (-n, -(n + 1), -(n + 3)):
                want = mp.quad(lambda s: s ** m * pdf(s), [rc, 2]) / den
                assert moment_hardcore(BallGeometry(n), rc, m) == pytest.approx(
                    float(want), rel=1e-12), (rc, m)


@pytest.mark.parametrize("n,rc,orders", [(300, 0.05, (-3, 1, 50)), (300, 1.0, (-3, 1, 50)),
                                          (2, 1.9999999, (-6, 1, 50))])
def test_hardcore_large_dimension_and_near_diameter(n, rc, orders):
    # closed form at R = 1: H(m) ~ (2^k U((k+1)/2) - r_c^k U(1/2)) / k with
    # U(a) = int_{y0}^1 t^(a-1) (1-t)^((n-1)/2) dt, k = m + n, y0 = (r_c/2)^2;
    # the mass sits at a sharp interior mode (n = 300) or on a support of
    # width 1e-7 (r_c near 2R)
    with mp.workdps(40):
        y0, p = (mp.mpf(rc) / 2) ** 2, mp.mpf(n + 1) / 2

        def h(k):
            return (2 ** k * mp.betainc(mp.mpf(k + 1) / 2, p, y0, 1)
                    - mp.mpf(rc) ** k * mp.betainc(0.5, p, y0, 1)) / k
        for m in orders:
            assert moment_hardcore(BallGeometry(n), rc, m) == pytest.approx(
                float(h(m + n) / h(n)), rel=1e-12), m


# ---------------------------------------------------------------------------
# Coulomb-type energies
# ---------------------------------------------------------------------------

def test_coulomb_printed_values():
    assert coulomb_pair_energy(G3) == pytest.approx(1.2, rel=1e-14)  # 6/5 e0^2/R
    assert coulomb_self_energy(SelfEnergySpec(count=2, geometry=G3)) == pytest.approx(1.2)
    assert coulomb_self_energy(SelfEnergySpec(count=10, geometry=G3)) == pytest.approx(54.0)
    # W = n/(n+2) Z(Z-1) q^2 / R^(n-2): n = 4, Z = 2 gives 4/3
    assert coulomb_self_energy(SelfEnergySpec(count=2, geometry=BallGeometry(4, 1.0))) \
        == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_coulomb_equals_moment_route():
    for n in (3, 4, 5, 6):
        g = BallGeometry(n, 1.7)
        assert coulomb_pair_energy(g, q2=2.0) == pytest.approx(
            2.0 * moment_uniform(g, -(n - 2)), rel=1e-12)


def test_coulomb_gaussian():
    assert coulomb_gaussian_pair_energy(3, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
    assert coulomb_gaussian_pair_energy(4, 1.0) == pytest.approx(0.25, rel=1e-13)
    # printed per-pair form q^2 / (2^(n-2) Gamma(n/2) sigma^(n-2))
    for n in (3, 4, 5):
        sigma = 1.3
        want = 1.0 / (2.0 ** (n - 2) * math.gamma(n / 2.0) * sigma ** (n - 2))
        assert coulomb_gaussian_pair_energy(n, sigma) == pytest.approx(want, rel=1e-13)
    spec = SelfEnergySpec(count=4, sigma=1.0)
    assert coulomb_gaussian_self_energy(spec, n=3) == pytest.approx(6.0 / math.sqrt(math.pi))


def test_coulomb_dimension_guard():
    with pytest.raises(UnsupportedError):
        coulomb_pair_energy(BallGeometry(2, 1.0))


# ---------------------------------------------------------------------------
# Neutrino-pair exchange
# ---------------------------------------------------------------------------

def test_nunubar_uniform_leading_behavior():
    w = neutrino_self_energy_uniform(1.0, 0.01, 2)
    leading = 3.0 * 2.0 * 1.0 / (16.0 * math.pi ** 3 * 1e-4 * 1.0)
    assert 0.98 <= w / leading <= 1.0


def test_nunubar_uniform_rc_scaling():
    # leading 1/rc^2 behavior: W(2 rc)/W(rc) -> 1/4
    ratio = neutrino_self_energy_uniform(1.0, 2e-5, 2) / neutrino_self_energy_uniform(1.0, 1e-5, 2)
    assert ratio == pytest.approx(0.25, abs=1e-3)


def test_nunubar_uniform_matches_quadrature():
    for rc in (0.01, 0.2):
        want = quad(lambda s: s ** -5 * pdf_uniform(G3, s), rc, 2.0,
                    epsabs=1e-13, limit=400)[0] / (4.0 * math.pi ** 3)
        got = neutrino_self_energy_uniform(1.0, rc, 2)
        assert got == pytest.approx(want, rel=1e-8)


def test_nunubar_uniform_scales_with_pairs_and_couplings():
    base = neutrino_self_energy_uniform(1.0, 0.1, 2)
    assert neutrino_self_energy_uniform(1.0, 0.1, 5) == pytest.approx(10.0 * base, rel=1e-13)
    assert neutrino_self_energy_uniform(1.0, 0.1, 2, g_f2=2.0, a2=0.25) \
        == pytest.approx(0.5 * base, rel=1e-13)


@pytest.mark.parametrize("R,rc", [(1.0, 0.01), (1.0, 1.0), (1.0, 1.99), (1.0, 1.9999),
                                  (3.0, 5.999), (0.7, 1.3), (1e100, 1e-200), (1e-60, 1.5e-60)])
def test_nunubar_uniform_against_mpmath(R, rc):
    # the bracket's four terms cancel as r_c -> 2R (3.3e-9 and 5.8e-4 off at
    # 1.99R and 1.9999R); 3 (2R - r_c)^3 / (16 r_c^2 R^6) does not, and leaves
    # the double range only in intermediate factors at the extreme radii
    with mp.workdps(50):
        Rm, rcm = mp.mpf(R), mp.mpf(rc)
        want = 3 * 3 * (2 * Rm - rcm) ** 3 / (16 * rcm ** 2 * Rm ** 6) / (4 * mp.pi ** 3)
    got = neutrino_self_energy_uniform(R, rc, 3)
    tol = 1e-14 if 1e-10 < R < 1e10 else 1e-12  # log space beyond
    assert got == pytest.approx(float(want), rel=tol, abs=0.0)
    assert neutrino_self_energy_uniform(R, rc, 3, a2=-1.0) == -got
    assert neutrino_self_energy_uniform(R, rc, 3, a2=0.0) == 0.0


def test_nunubar_gaussian_matches_quadrature():
    sigma, rc = 1.0, 0.1
    gb = GaussianBall(3, sigma)
    integral, _ = quad(lambda s: s ** -5 * pdf_gaussian(gb, s), rc, np.inf, limit=400)
    want = integral / (4.0 * math.pi ** 3)
    assert neutrino_self_energy_gaussian(sigma, rc, 2) == pytest.approx(want, rel=1e-6)


def test_nunubar_gaussian_monotone_and_vanishing():
    vals = [neutrino_self_energy_gaussian(1.0, rc, 2) for rc in (0.05, 0.1, 0.5, 2.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-12


def test_nunubar_guards():
    with pytest.raises(DomainError):
        neutrino_self_energy_uniform(1.0, 0.0, 2)
    with pytest.raises(DomainError):
        neutrino_self_energy_uniform(1.0, 2.5, 2)
    with pytest.raises(DomainError):
        neutrino_self_energy_gaussian(1.0, -0.1, 2)


# ---------------------------------------------------------------------------
# <r12 . r23>
# ---------------------------------------------------------------------------

def test_dot_constant_printed_list():
    want = {1: -F(1, 3), 2: -F(1, 2), 3: -F(3, 5), 4: -F(2, 3), 5: -F(5, 7)}
    for n, w in want.items():
        assert dot_constant(n, 1.0, "uniform") == pytest.approx(float(w), abs=1e-15)
    assert dot_constant(3, 1.0, "gaussian") == -3.0
    assert dot_constant(3, 2.0, "uniform") == pytest.approx(-2.4, rel=1e-14)


def test_dot_constant_equals_half_s2():
    for n in range(1, 6):
        assert dot_constant(n, 1.0, "uniform") == pytest.approx(
            -0.5 * moment_uniform(BallGeometry(n, 1.0), 2), rel=1e-12)


def test_dot_constant_mc_triples():
    cfg = SamplerConfig(seed=42, count=300_000)
    pts = sample_uniform_ball(G3, cfg)
    p1, p2, p3 = pts[:100_000], pts[100_000:200_000], pts[200_000:]
    dots = np.sum((p2 - p1) * (p3 - p2), axis=1)
    stderr = np.std(dots) / math.sqrt(len(dots))
    assert abs(np.mean(dots) - (-0.6)) <= 3.0 * stderr


def test_moment_mc_validation():
    cfg = SamplerConfig(seed=42, count=400_000)
    pts = sample_uniform_ball(G3, cfg)
    d = np.linalg.norm(pts[:200_000] - pts[200_000:], axis=1)
    for m, want in [(1, 36.0 / 35.0), (2, 1.2), (-1, 1.2)]:
        v = d ** m
        assert abs(np.mean(v) - want) <= 3.0 * np.std(v) / math.sqrt(len(v))
