"""Radial closed forms, Gaussian family, and multi-shell piecewise polynomials."""
import json
import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import reference_forms as ref
from nballdist.core import density_mass, sphere_area
from nballdist.symmetric import _radial_kernel, _shells_pdf
from nballdist import (
    BallGeometry,
    DomainError,
    Gaussian,
    GaussianBall,
    InvalidDensityError,
    MultiShell,
    ParabolicRadial,
    PrecisionError,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
    equal_thickness_shells,
    gaussian_mode,
    multishell_polynomial,
    pdf_gaussian,
    pdf_multishell,
    pdf_radial_numeric,
    pdf_radial_parabolic,
    pdf_radial_r2,
    pdf_uniform,
)

G3 = BallGeometry(3, 1.0)


# ---------------------------------------------------------------------------
# rho ~ r^2 and the parabolic family
# ---------------------------------------------------------------------------

def test_r2_closed_form_values():
    assert pdf_radial_r2(G3, 0.0) == 0.0
    assert pdf_radial_r2(G3, 2.0) == pytest.approx(0.0, abs=1e-12)
    # sum of the printed coefficients at s = R = 1 is exactly 345/448
    assert pdf_radial_r2(G3, 1.0) == pytest.approx(345.0 / 448.0, rel=1e-13)


@pytest.mark.parametrize("R", [1.0, 2.5])
@pytest.mark.parametrize("t", [0.5, 1.39, 1.41, 1.9, 1.99, 1.9999])
def test_r2_near_the_diameter_against_mpmath(t, R):
    # the printed powers of s cancel as s -> 2R (8.6e-8 relative at 1.9999R
    # when summed as printed); powers of 2R - s keep full accuracy there
    from nballdist.symmetric import _R2_COEFFS
    s = t * R
    with mp.workdps(50):
        want = sum(mp.mpf(c.numerator) / c.denominator * mp.mpf(s) ** k / mp.mpf(R) ** (k + 1)
                   for k, c in _R2_COEFFS.items())
        assert pdf_radial_r2(BallGeometry(3, R), s) == pytest.approx(float(want), rel=1e-13)


def test_r2_requires_n3():
    with pytest.raises(UnsupportedError):
        pdf_radial_r2(BallGeometry(2, 1.0), 0.5)


def test_parabolic_alpha0_is_uniform():
    for s in np.linspace(0.0, 2.0, 21):
        assert pdf_radial_parabolic(G3, 0.0, float(s)) == pytest.approx(
            pdf_uniform(G3, float(s)), abs=1e-12)


def test_parabolic_endpoint_and_value():
    assert pdf_radial_parabolic(G3, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert pdf_radial_parabolic(G3, 1.0, 1.0) == pytest.approx(1.0295758928571428, rel=1e-12)


def test_parabolic_domain():
    with pytest.raises(DomainError):
        pdf_radial_parabolic(G3, 1.2, 0.5)


def _parabolic_mpmath(alpha, R, s):
    """The printed parabolic form at 60 digits, at the float inputs."""
    with mp.workdps(60):
        a, R, s = mp.mpf(alpha), mp.mpf(R), mp.mpf(s)
        d = 5 - 3 * a
        return (15 * (35 - 42 * a + 15 * a * a) * s ** 2 / (7 * d * d * R ** 3)
                - 225 * (1 - a) ** 2 * s ** 3 / (4 * d * d * R ** 4)
                - 15 * a * s ** 4 / (d * R ** 5)
                + 75 * (1 + 6 * a - 3 * a * a) * s ** 5 / (16 * d * d * R ** 6)
                - 15 * a * s ** 7 / (8 * d * d * R ** 8)
                + 45 * a * a * s ** 9 / (448 * d * d * R ** 10))


@pytest.mark.parametrize("R", [1.0, 3.0])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_parabolic_against_mpmath_up_to_2r(alpha, R):
    # in powers of s, alpha = 1 was off by a factor of 20 at s = 1.9999R
    g = BallGeometry(3, R)
    grid = R * np.array([0.5, 1.2, 1.5, 1.99, 1.9999, 1.999999])
    got = pdf_radial_parabolic(g, alpha, grid)
    for s, value in zip(grid, got):
        want = float(_parabolic_mpmath(alpha, R, float(s)))
        assert value == pytest.approx(want, rel=1e-13, abs=0.0), (alpha, R, s)
        assert pdf_radial_parabolic(g, alpha, float(s)) == value


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_parabolic_normalized(alpha):
    total, _ = quad(lambda s: pdf_radial_parabolic(G3, alpha, s), 0.0, 2.0,
                    epsabs=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Numeric radial evaluator vs closed forms
# ---------------------------------------------------------------------------

def test_numeric_matches_uniform():
    for n in (1, 2, 3, 4):
        g = BallGeometry(n, 1.0)
        for s in (0.4, 1.0, 1.7):
            assert pdf_radial_numeric(g, Uniform(), s, tol=1e-7) == pytest.approx(
                pdf_uniform(g, s), abs=1e-6)


def test_numeric_matches_r2_closed_form():
    for s in np.linspace(0.1, 1.9, 7):
        assert pdf_radial_numeric(G3, RadialPolynomial((0, 0, 1)), float(s),
                                  tol=1e-7) == pytest.approx(
            pdf_radial_r2(G3, float(s)), abs=1e-6)


def test_numeric_matches_parabolic():
    assert pdf_radial_numeric(G3, RadialPolynomial((1, 0, -1)), 0.5,
                              tol=1e-7) == pytest.approx(
        pdf_radial_parabolic(G3, 1.0, 0.5), abs=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numeric_kernel_integrates_to_exact_norm(n):
    g = BallGeometry(n, 1.0)
    density = ParabolicRadial(0.5)
    kernel = _radial_kernel(n, density, 1e-8)
    total, _ = quad(lambda t: kernel(t, 2.0 - t), 0.0, 2.0, epsabs=1e-6, limit=200)
    # the half-lens kernel without the direction measure carries 1/(2 |S^(n-1)|)
    exact = density_mass(density, g) ** 2 / (2.0 * sphere_area(n))
    assert total == pytest.approx(exact, rel=1e-6)
    # shells take the cap-volume sum, which is normalized: unit mass, split at
    # every kink |r_i - r_j|, r_i + r_j
    shells = MultiShell((0.5, 1.0), (1.0, 2.0))
    kinks = sorted({abs(a + sign * b) for a in shells.radii for b in shells.radii
                    for sign in (1, -1)} - {0.0, 2.0})
    total, _ = quad(lambda s: _shells_pdf(g, shells, s), 0.0, 2.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200, points=kinks)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_numeric_radial_large_dimension_matches_uniform():
    # the normalization (Int rho)^2 / (2 |S^(n-1)|) underflowed at n = 300
    g = BallGeometry(300, 1.0)
    s = np.linspace(0.05, 1.95, 39)
    got = np.array([pdf_radial_numeric(g, ParabolicRadial(0.0), float(v)) for v in s])
    want = pdf_uniform(g, s)
    assert np.max(np.abs(got - want)) < 1e-10
    bulk = want > 1e-3 * want.max()
    assert np.max(np.abs(got - want)[bulk] / want[bulk]) < 1e-10


def test_numeric_radial_large_dimension_parabolic_peak():
    # |S^(n-1)| itself overflowed through Gamma(n/2) at n = 400; the curve's
    # bulk lies near s = sqrt(2) R, where a coarse Simpson sum sees unit mass
    g = BallGeometry(400, 1.0)
    s = np.linspace(1.2, 1.65, 91)
    p = np.array([pdf_radial_numeric(g, ParabolicRadial(0.5), float(v)) for v in s])
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.sum(p[1:] + p[:-1]) / 2.0 * (s[1] - s[0]) == pytest.approx(1.0, abs=1e-4)


def _in_r_over_R(c, R):
    """Coefficients in r of the profile sum_k c_k (r/R)^k."""
    return tuple(ck / R ** k for k, ck in enumerate(c))


# rho(r) = sum_k c_k r^k for the oracle; the parabolic profile 1 - alpha r^2/R^2;
# the radial polynomials in r/R, nonnegative on every ball
R2_PROFILES = [(f"parabolic:{a}", lambda R, a=a: ParabolicRadial(a), lambda R, a=a: (1.0, 0.0, -a / R ** 2))
               for a in (0.0, 0.3, 0.5, 1.0)] + [
    (f"radial-poly:{c}", lambda R, c=c: RadialPolynomial(_in_r_over_R(c, R)),
     lambda R, c=c: _in_r_over_R(c, R))
    for c in ((1.0, 0.0, -1.0), (2.0, 0.0, 1.0, 0.0, -1.0))]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("R", [1.0, 3.0])
def test_exact_slice_matches_nested_quadrature(n, R):
    # the closed-form slice integral against the nested QUADPACK it replaced
    g = BallGeometry(n, R)
    s = np.linspace(0.0, 2.0 * R, 25)[1:-1]
    for name, density, coefficients in R2_PROFILES:
        got = pdf_radial_numeric(g, density(R), s)
        want = np.array([ref.radial_nested_pdf(n, R, coefficients(R), float(v)) for v in s])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want), name
        assert pdf_radial_numeric(g, density(R), float(s[7])) == got[7]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("R", [1.0, 3.0])
def test_odd_power_profile_keeps_nested_quadrature_bit_for_bit(n, R):
    g = BallGeometry(n, R)
    s = np.linspace(0.0, 2.0 * R, 12)
    got = pdf_radial_numeric(g, RadialPolynomial((1.0, 1.0)), s)
    want = [ref.radial_nested_pdf(n, R, (1.0, 1.0), float(v)) for v in s]
    if R == 1.0:
        assert got.tolist() == want
    else:
        # the route runs on the unit ball, the oracle in absolute units
        assert np.max(np.abs(got - want)) <= 1e-14 * max(want)


@pytest.mark.parametrize("R", [1.0, 3.0, 0.7, 3e160, 3e-160, 7e99])
@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_uniform_profiles_keep_relative_accuracy_near_2R(n, R):
    # the kernel takes 2 - s/R from R - s/2, which is exact there; formed
    # after rounding s/R it was up to 2.9e-7 off (R = 7e99, n = 10)
    g = BallGeometry(n, R)
    s = 2.0 * R * (1.0 - np.array([1e-3, 1e-5, 1e-7, 1e-9]))
    want = pdf_uniform(g, s)
    for density in (Uniform(), ParabolicRadial(0.0), RadialPolynomial((2.0,))):
        got = pdf_radial_numeric(g, density, s)
        assert np.max(np.abs(got / want - 1.0)) <= 5e-14, density


@pytest.mark.parametrize("c", [(0.0, 0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 0.0, 1.0)])
@pytest.mark.parametrize("n", [3, 4])
def test_radial_polynomial_at_extreme_radii(c, n):
    # r^k is the same profile on every ball, so R P(R t) does not depend on R;
    # at R = 1e-100 this raised PrecisionError, at 1e100 it warned, at 1e160
    # it raised a raw OverflowError
    t = np.array([0.0, 0.05, 0.5, 1.0, 1.5, 1.9, 2.0])
    want = pdf_radial_numeric(BallGeometry(n, 1.0), RadialPolynomial(c), t)
    for R in (1e-150, 1e-100, 1e100, 1e160):
        got = R * pdf_radial_numeric(BallGeometry(n, R), RadialPolynomial(c), R * t)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0), R


def test_radial_polynomial_signs_and_values_are_checked():
    with pytest.raises(InvalidDensityError):
        pdf_radial_numeric(G3, RadialPolynomial((1.0, -2.0)), 0.5)  # negative past r = 1/2
    with pytest.raises(InvalidDensityError):
        RadialPolynomial((1.0, math.nan))
    with pytest.raises(InvalidDensityError):
        MultiShell((0.5, 1.0), (1.0, math.inf))
    with pytest.raises(DomainError):
        Gaussian(math.inf)
    for c in ((1.0, 0.0, -1.0), (2.0, -1.0, 0.5, 0.25), (2.0, 0.0, 1.0, 0.0, -1.0)):
        assert pdf_radial_numeric(BallGeometry(4, 1.0), RadialPolynomial(c), 0.5) > 0.0


def test_exact_slice_takes_one_quadrature_per_point(monkeypatch):
    from nballdist import symmetric
    calls = []
    real = symmetric.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)
    monkeypatch.setattr(symmetric, "quad", counting)
    s = np.linspace(0.0, 2.0, 13)  # the two ends need no integral
    for density in (Uniform(), ParabolicRadial(0.5), RadialPolynomial((2.0, 0.0, 1.0, 0.0, -1.0))):
        calls.clear()
        pdf_radial_numeric(BallGeometry(4, 1.0), density, s)
        assert calls == [(0.0, 1.0)] * 11
    calls.clear()
    pdf_radial_numeric(BallGeometry(4, 1.0), RadialPolynomial((1.0, 1.0)), s)
    assert len(calls) > 11 * 21  # one inner integral per outer node


def test_numeric_radial_array_in_array_out():
    g = BallGeometry(4, 1.5)
    grid = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    values = pdf_radial_numeric(g, ParabolicRadial(0.5), grid)
    assert values.shape == (3, 4)
    got = pdf_radial_numeric(g, ParabolicRadial(0.5), 1.25)
    assert isinstance(got, float)
    assert got == pdf_radial_numeric(g, ParabolicRadial(0.5), np.array([1.25]))[0]
    with pytest.raises(DomainError):
        pdf_radial_numeric(g, ParabolicRadial(0.5), np.array([1.0, 3.5]))


def test_exact_slice_large_dimension_tails_match_uniform():
    # the slice factor T^(n-1) is taken relative to the widest slice's, in
    # log space: the nested route met only its absolute tolerance here, off
    # by up to 2.9e-4 relative at n = 300, 0 at n = 400, s = 1.99R, and a
    # PrecisionError at n = 3000
    g = BallGeometry(300, 1.0)
    s = np.linspace(0.05, 1.95, 39)
    got, want = pdf_radial_numeric(g, ParabolicRadial(0.0), s), pdf_uniform(g, s)
    inside = want > 0.0
    assert np.max(np.abs(got[inside] / want[inside] - 1.0)) < 1e-11
    for n, t in ((400, 1.99), (3000, 1.4)):
        g = BallGeometry(n, 2.0)
        want = pdf_uniform(g, 2.0 * t)
        assert want > 1e-290
        assert pdf_radial_numeric(g, ParabolicRadial(0.0), 2.0 * t) == pytest.approx(
            want, rel=1e-11, abs=0.0), n


@pytest.mark.parametrize("n", [4, 40])
@pytest.mark.parametrize("R", [1e-150, 1e150])
def test_exact_slice_at_extreme_radii(n, R):
    # P_R(R t) R = P_1(t); the nested route raised PrecisionError at the small
    # radius and gave nan or OverflowError at the large one
    t = np.array([0.1, 0.7, 1.0, 1.5, 1.95])
    got = pdf_radial_numeric(BallGeometry(n, R), ParabolicRadial(0.5), R * t) * R
    want = pdf_radial_numeric(BallGeometry(n, 1.0), ParabolicRadial(0.5), t)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_numeric_rejects_bad_input():
    with pytest.raises(InvalidDensityError):
        pdf_radial_numeric(G3, __import__("nballdist").CartesianMonomial((2, 2, 2)), 0.5)
    with pytest.raises(UnsupportedError):
        pdf_radial_numeric(G3, Uniform(), 0.5, tol=1e-13)
    with pytest.raises(UnsupportedError):
        pdf_radial_numeric(G3, Gaussian(1.0), 0.5)


SHELL_SETS = [((0.5, 1.0), (1.0, 2.0)),
              ((0.25, 0.5, 0.75, 1.0), (1.0, 2.0, 3.0, 4.0)),
              ((0.3, 0.9, 1.0), (3.0, 0.0, 1.5))]
SHELL_S = [1e-6, 1e-3, 0.1, 0.3, 0.6, 0.8, 1.0, 1.2, 1.5, 1.8, 1.99, 1.999999]


def test_cap_volume_oracle_matches_closed_forms():
    # the oracle is the n = 3 shell polynomial and, for one shell, the uniform ball
    for radii, dens in SHELL_SETS:
        shells = MultiShell(radii, dens)
        for s in SHELL_S:
            assert ref.shells_cap_pdf(3, radii, dens, s) == pytest.approx(
                pdf_multishell(G3, shells, s), abs=1e-13)
    for n in (1, 2, 4, 5, 6):
        g = BallGeometry(n, 1.0)
        for s in SHELL_S:
            assert ref.shells_cap_pdf(n, (1.0,), (1.0,), s) == pytest.approx(
                pdf_uniform(g, s), abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
@pytest.mark.parametrize("radii,dens", SHELL_SETS)
def test_numeric_shells_match_cap_volume_oracle(n, radii, dens):
    # the cap-volume oracle shares the package's formula; nested QUADPACK
    # over the overlap integral is the independent check
    g = BallGeometry(n, 1.0)
    shells = MultiShell(radii, dens)
    for s in SHELL_S:
        value = pdf_radial_numeric(g, shells, s)
        assert value == pytest.approx(ref.shells_cap_pdf(n, radii, dens, s), abs=1e-10), s
        assert value == pytest.approx(ref.shells_quadpack_pdf(n, radii, dens, s), abs=1e-10), s
    assert pdf_multishell(g, shells, np.array(SHELL_S)).tolist() == \
        [pdf_radial_numeric(g, shells, s) for s in SHELL_S]


def _mp_shells_pdf(n, radii, dens, s):
    """The cap-volume shell PDF at the working mpmath precision, unscaled."""
    s = mp.mpf(s)
    radii = [mp.mpf(r) for r in radii]
    dens = [mp.mpf(d) for d in dens] + [0]
    c = [dens[i] - dens[i + 1] for i in range(len(radii))]
    unit = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)

    def cap(r, h):
        if h >= r:
            return mp.mpf(0)
        if h <= -r:
            return unit * r ** n
        half = unit * r ** n / 2 * mp.betainc(mp.mpf(n + 1) / 2, mp.mpf(1) / 2, 0,
                                              1 - (h / r) ** 2, regularized=True)
        return half if h >= 0 else unit * r ** n - half

    overlap = 0
    for ci, a in zip(c, radii):
        for cj, b in zip(c, radii):
            h = (s * s + a * a - b * b) / (2 * s)
            overlap += ci * cj * (cap(a, h) + cap(b, s - h))
    mass = sum(ci * unit * r ** n for ci, r in zip(c, radii))
    return n * unit * s ** (n - 1) * overlap / mass ** 2


# at n = 400 the caps near s = 2R underflow (1.7e-281 reads 0 at s = 1.99R),
# so that grid stops at 1.9R
@pytest.mark.parametrize("n,ts", [(20, (0.3, 0.8, 1.2, 1.41, 1.6, 1.9, 1.99, 1.999)),
                                  (100, (0.3, 0.8, 1.2, 1.41, 1.6, 1.9, 1.99, 1.999)),
                                  (400, (0.3, 0.8, 1.2, 1.41, 1.6, 1.9))])
@pytest.mark.parametrize("R", [1.0, 1000.0])
def test_shells_large_dimension_against_mpmath(n, ts, R):
    with mp.workdps(50):
        for radii, dens in SHELL_SETS:
            radii = tuple(r * R for r in radii)
            s = np.array(ts) * R
            got = pdf_multishell(BallGeometry(n, R), MultiShell(radii, dens), s)
            for v, x in zip(got, s):
                assert v == pytest.approx(float(_mp_shells_pdf(n, radii, dens, x)), rel=1e-12), x


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8),
       radii=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5, unique=True),
       dens=st.lists(st.integers(0, 9), min_size=5, max_size=5).filter(any),
       s=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
# thin 1-D shells: no two of their points are 1 or 0.5 apart, and the cap
# volumes cancel
@example(n=1, radii=[0.998046875, 1.0], dens=[0, 1, 0, 0, 0], s=[1.0])
@example(n=1, radii=[0.99999, 1.0], dens=[0, 1, 0, 0, 0], s=[0.5])
# a shell one ulp thick: the difference of two balls gave 1.80e17, not 1.44e17
@example(n=1, radii=[0.05, 0.05000000000000001], dens=[0, 0, 0, 0, 1], s=[0.0])
def test_shells_random_sets_match_cap_volume_oracle(n, radii, dens, s):
    radii = sorted(radii)
    dens = dens[:len(radii)]
    if not any(dens):
        dens[-1] = 1
    got = _shells_pdf(BallGeometry(n, 1.0), MultiShell(radii, dens), np.array(s))
    for v, x in zip(got, s):
        assert v == pytest.approx(ref.shells_cap_pdf(n, radii, dens, x), rel=1e-12, abs=1e-12), x


def test_shells_caps_underflow_near_the_diameter():
    # each cap's I_y ~ y^(n/2) underflows before (s/R)^(n-1) scales it back
    one = MultiShell((1.0,), (1.0,))
    got = pdf_multishell(BallGeometry(1000, 1.0), one, 1.9)
    assert got == pytest.approx(7.861432611149872e-227, rel=1e-12, abs=0.0)
    assert got == pytest.approx(pdf_uniform(BallGeometry(1000, 1.0), 1.9), rel=1e-12, abs=0.0)
    with mp.workdps(50):
        for n, ts, tol in ((400, (1.9, 1.99), 1e-12), (700, (1.95,), 1e-12), (1000, (1.5, 1.9), 2e-12)):
            s = np.array(ts)
            got = pdf_multishell(BallGeometry(n, 1.0), MultiShell((0.5, 1.0), (1.0, 2.0)), s)
            for v, x in zip(got, ts):
                want = float(_mp_shells_pdf(n, (0.5, 1.0), (1.0, 2.0), x))
                assert want > 1e-300 and v == pytest.approx(want, rel=tol, abs=0.0), (n, x)
                # the log-space lanes agree between array and float calls
                assert pdf_multishell(BallGeometry(n, 1.0), MultiShell((0.5, 1.0), (1.0, 2.0)), x) == v


@pytest.mark.parametrize("density", [Uniform(), ParabolicRadial(0.5)])
def test_uniform_and_parabolic_profiles_at_extreme_radii(density):
    # beyond 2^(+-32) they are evaluated on the unit ball, P(s; R) = P(s/R; 1)/R;
    # at R = 1e160 both raised PrecisionError, and at R = 1e-160 the parabolic
    # profile raised IntegrationWarning and the uniform one read 1.7e-5 off
    t = np.array([1e-3, 0.3, 1.0, 1.7, 1.999])
    base = pdf_radial_numeric(BallGeometry(4, 1.0), density, t)
    for R in (1e-160, 1e-40, 1e-5, 3.0, 1e5, 1e40, 1e160):
        got = R * pdf_radial_numeric(BallGeometry(4, R), density, R * t)
        np.testing.assert_allclose(got, base, rtol=2e-12, atol=0.0, err_msg=str(R))


@pytest.mark.parametrize("n", [1100, 1500])
def test_shells_past_n1024_are_finite(n):
    # (s/R)^(n-1) overflows near s = 2R once n > 1024, so these lanes are
    # summed in log space; P itself stays in range
    s = np.linspace(0.0, 2.0, 11)
    got = pdf_multishell(BallGeometry(n, 1.0), MultiShell((0.5, 1.0), (1.0, 2.0)), s)
    assert np.all(np.isfinite(got)) and got[0] == 0.0 and got[-1] == 0.0
    with mp.workdps(50):
        for v, x in zip(got[1:-1], s[1:-1]):
            want = float(_mp_shells_pdf(n, (0.5, 1.0), (1.0, 2.0), x))
            if want > 1e-300:
                assert v == pytest.approx(want, rel=2e-12, abs=0.0), x


@pytest.mark.parametrize("n", [600, 1100])
@pytest.mark.parametrize("shells", [MultiShell((0.5,), (1.0,)), MultiShell((0.5, 1.0), (1.0, 0.0))])
def test_shells_inside_the_ball_at_large_n(n, shells):
    # (0.5/R)^n underflows, so volumes are taken over the largest occupied
    # ball; the density is the uniform ball of radius 0.5
    s = np.linspace(0.0, 2.0, 21)
    got = pdf_multishell(BallGeometry(n, 1.0), shells, s)
    assert got[:11].tolist() == pdf_uniform(BallGeometry(n, 0.5), s[:11]).tolist()
    assert not np.any(got[11:])


@pytest.mark.parametrize("n", [2, 4])
def test_shells_beyond_the_ball_are_refused(n):
    with pytest.raises(InvalidDensityError):
        pdf_multishell(BallGeometry(n, 1.0), MultiShell((0.5, 2.0), (1.0, 1.0)), 0.5)


def test_numeric_shells_n1_cuts_at_s_plus_r():
    # P(s) = 10 (1 - s) / 9 on s < 1/2; nested quadrature once missed it for
    # lack of a cut at x = s + r_k (the oracle keeps that cut)
    shells = MultiShell((0.5, 1.0), (1.0, 2.0))
    assert pdf_radial_numeric(BallGeometry(1, 1.0), shells, 0.001) == pytest.approx(1.11, rel=1e-12)


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def test_gaussian_values():
    gb = GaussianBall(3, 1.0)
    assert pdf_gaussian(gb, 0.0) == 0.0
    assert gaussian_mode(gb) == pytest.approx(2.0, rel=1e-15)
    gb1 = GaussianBall(1, 1.0)
    assert pdf_gaussian(gb1, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("n,sigma", [(1, 1.0), (3, 1.0), (3, 0.5), (6, 2.0)])
def test_gaussian_normalized_and_peaked(n, sigma):
    gb = GaussianBall(n, sigma)
    total, _ = quad(lambda s: pdf_gaussian(gb, s), 0.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-10)
    grid = np.linspace(1e-6, 10.0 * sigma, 20001)
    vals = np.array([pdf_gaussian(gb, float(s)) for s in grid])
    assert grid[int(np.argmax(vals))] == pytest.approx(gaussian_mode(gb), abs=2e-3 * sigma)


def test_gaussian_domain():
    with pytest.raises(DomainError):
        pdf_gaussian(GaussianBall(3, 1.0), -0.1)
    with pytest.raises(DomainError):
        GaussianBall(3, 0.0)


@pytest.mark.parametrize("sigma", [1e-170, 1e-100, 1e100, 1.0])
@pytest.mark.parametrize("t", [0.5, 2.0, 4.0])
def test_gaussian_in_units_of_sigma_against_mpmath(sigma, t):
    # s^2 / 4 sigma^2 was 0/0 (nan) at sigma = 1e-170, and n log(sigma) in the
    # exponent cost 6e-14 at sigma = 1e+-100
    s = t * sigma
    with mp.workdps(50):
        S, sig = mp.mpf(s), mp.mpf(sigma)
        want = S ** 2 * mp.exp(-S * S / (4 * sig * sig)) / (4 * mp.gamma(mp.mpf(3) / 2) * sig ** 3)
        assert pdf_gaussian(GaussianBall(3, sigma), s) == pytest.approx(float(want), rel=1e-15)


def test_gaussian_unit_sigma_bits_unchanged():
    # at sigma = 1, t = s and (t/2)^2 = s^2/4 exactly: the former formula, bit for bit
    s = np.linspace(0.0, 16.0, 50001)
    for n in (1, 3, 6):
        lognorm = (n - 1) * math.log(2.0) + math.lgamma(n / 2.0)
        logs = np.log(np.where(s > 0.0, s, 1.0))
        old = np.exp((n - 1) * logs - s * s / 4.0 - lognorm)
        if n > 1:
            old = np.where(s > 0.0, old, 0.0)
        assert np.array_equal(pdf_gaussian(GaussianBall(n, 1.0), s), old)


def test_gaussian_tails_beyond_the_double_range_are_zero():
    # t = s/sigma and (t/2)^2 overflow: exp gives exactly 0, with no warning
    assert np.array_equal(pdf_gaussian(GaussianBall(3, 1e-160), np.array([0.0, 8.0, 16.0])),
                          np.zeros(3))
    assert pdf_gaussian(GaussianBall(3, 1e-300), 1e300) == 0.0


def test_gaussian_beyond_the_double_range_raises():
    # P(2 sigma) = 0.415/sigma overflows at a subnormal sigma; it was nan
    with pytest.raises(PrecisionError):
        pdf_gaussian(GaussianBall(3, 1e-310), 2e-310)


# ---------------------------------------------------------------------------
# Multi-shell models
# ---------------------------------------------------------------------------

def _assert_regions_match(poly, tables):
    assert len(poly.pieces) == len(tables)
    for got_piece, want in zip(poly.pieces, tables):
        assert ref.coeff_dict(got_piece) == ref.nonzero(want)


@pytest.mark.parametrize("dens", [(1, 2), (2, 1), (F(3, 7), F(5, 2)), (1, 1)])
def test_two_shell_matches_reference_table(dens):
    poly = multishell_polynomial(G3, equal_thickness_shells(dens, 1))
    _assert_regions_match(poly, ref.shell2_regions(*dens))


@pytest.mark.parametrize("dens", [(1, 2, 3), (5, 3, 1), (F(3, 7), F(5, 2), F(1, 3)), (2, 2, 2)])
def test_three_shell_matches_reference_table(dens):
    poly = multishell_polynomial(G3, equal_thickness_shells(dens, 1))
    _assert_regions_match(poly, ref.shell3_regions(*dens))


@pytest.mark.parametrize("dens", [(1, 2, 3, 4), (4, 3, 2, 1), (F(3, 7), F(5, 2), F(1, 3), 4)])
def test_four_shell_matches_corrected_table(dens):
    poly = multishell_polynomial(G3, equal_thickness_shells(dens, 1))
    _assert_regions_match(poly, ref.shell4_regions(*dens, corrected=True))


def test_four_shell_misprints_genuinely_differ():
    dens = (1, 2, 3, 4)
    poly = multishell_polynomial(G3, equal_thickness_shells(dens, 1))
    misprinted = ref.shell4_regions(*dens, corrected=False)
    assert ref.coeff_dict(poly.pieces[2])[5] != misprinted[2][5]
    assert ref.coeff_dict(poly.pieces[6])[5] != misprinted[6][5]


def test_equal_density_reduces_to_uniform():
    # any shell split with equal densities must reproduce the uniform ball
    for k in (2, 3, 4):
        poly = multishell_polynomial(G3, equal_thickness_shells([F(7, 3)] * k, 1))
        for piece in poly.pieces:
            assert ref.coeff_dict(piece) == {2: F(3), 3: F(-9, 4), 5: F(3, 16)}


def test_two_shell_region1_uniform_reduction_example():
    poly = multishell_polynomial(G3, equal_thickness_shells((1, 1), 1))
    assert ref.coeff_dict(poly.pieces[0]) == {2: F(3), 3: F(-9, 4), 5: F(3, 16)}


def test_two_shell_region4_s2_coefficient():
    poly = multishell_polynomial(G3, equal_thickness_shells((1, 2), 1))
    assert ref.coeff_dict(poly.pieces[3])[2] == F(768, 225)


def test_three_shell_region1_equal_density_s2():
    poly = multishell_polynomial(G3, equal_thickness_shells((1, 1, 1), 1))
    assert ref.coeff_dict(poly.pieces[0])[2] == F(3)


def test_polynomial_invariants():
    shells = MultiShell(radii=(F(2, 5), F(7, 10), F(1)), densities=(3, F(1, 2), 1))
    poly = multishell_polynomial(G3, shells)
    assert poly.integral() == 1
    assert all(j == 0 for j in poly.continuity_jumps())
    grid = np.linspace(0.0, 2.0, 400)
    assert np.all(poly(grid) >= -1e-15)


def test_arbitrary_boundaries_match_numeric():
    shells = MultiShell(radii=(0.4375, 0.90625, 1.0), densities=(2.0, 1.0, 0.5))
    poly = multishell_polynomial(G3, shells)
    for s in np.linspace(0.08, 1.92, 21):
        assert float(poly(float(s))) == pytest.approx(
            pdf_radial_numeric(G3, shells, float(s), tol=1e-7), abs=1e-6)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("shells", [((F(1, 2), F(1)), (1, 2)),
                                    ((F(1, 4), F(1, 2), F(3, 4), F(1)), (1, 2, 3, 4)),
                                    ((F(1, 3), F(1)), (2, 1))])
def test_shell_polynomial_full_relative_accuracy(R, shells):
    # summed in powers of s, the two-shell form was 1.1e-4 off at 1.999999R
    radii, dens = shells
    poly = multishell_polynomial(BallGeometry(3, float(R)),
                                 MultiShell(tuple(r * R for r in radii), dens))
    s = [R * t for t in (1.99, 1.9999, 1.999999)]
    for b in poly.breakpoints:
        s += [float(b) + sign * d * R for d in (1e-9, 1e-6, 1e-3) for sign in (-1, 1)]
    s = np.array([v for v in s if 0.0 < v < 2.0 * R])
    want = np.array([float(poly.evaluate_exact(F(v))) for v in s])
    assert np.max(np.abs(poly(s) - want) / want) < 1e-13


def test_pdf_multishell_scalar():
    shells = equal_thickness_shells((1, 2), 1)
    val = pdf_multishell(G3, shells, 0.3)
    assert val == pytest.approx(float(multishell_polynomial(G3, shells)(0.3)), rel=1e-15)
    with pytest.raises(DomainError):
        pdf_multishell(G3, shells, 2.5)


def test_multishell_requires_n3_and_full_radius():
    shells = equal_thickness_shells((1, 2), 1)
    with pytest.raises(UnsupportedError):
        multishell_polynomial(BallGeometry(4, 1.0), shells)
    with pytest.raises(InvalidDensityError):
        multishell_polynomial(G3, MultiShell(radii=(0.5, 0.9), densities=(1, 2)))
    with pytest.raises(InvalidDensityError):
        MultiShell(radii=(0.9, 0.5), densities=(1, 2))
    with pytest.raises(InvalidDensityError):
        MultiShell(radii=(0.5, 1.0), densities=(0, 0))


def test_radius_scaling():
    g = BallGeometry(3, 2.0)
    shells_r2 = MultiShell(radii=(1, 2), densities=(1, 2))
    poly = multishell_polynomial(g, shells_r2)
    ref_poly = multishell_polynomial(G3, equal_thickness_shells((1, 2), 1))
    for s in (0.3, 1.1, 2.9, 3.7):
        assert float(poly(s)) == pytest.approx(float(ref_poly(s / 2.0)) / 2.0, rel=1e-12)


def test_json_serialization_schema():
    poly = multishell_polynomial(G3, equal_thickness_shells((1, 2), 1))
    doc = json.loads(poly.to_json())
    assert set(doc) == {"breakpoints", "pieces"}
    assert doc["breakpoints"] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert len(doc["pieces"]) == 4
    assert all(len(p) == 10 for p in doc["pieces"])
    s = 0.75
    val = sum(c * s ** k for k, c in enumerate(doc["pieces"][1]))
    assert val == pytest.approx(pdf_multishell(G3, equal_thickness_shells((1, 2), 1), s), rel=1e-12)


# ---------------------------------------------------------------------------
# One float evaluator for every exact polynomial
# ---------------------------------------------------------------------------

def _polynomial_tables():
    """name -> (table at R = 1, dimension, evaluator) for every printed or
    odd-n table that ``PiecewisePolynomial`` sums."""
    from nballdist.arbitrary import _EX3_POLY, pdf_example_3d
    from nballdist.symmetric import _R2_COEFFS, _parabolic_polynomial
    from nballdist.uniform import odd_series_coefficients
    tables = {f"odd {n}": (odd_series_coefficients(n), n, pdf_uniform) for n in (3, 5, 7, 9)}
    tables["r2"] = (_R2_COEFFS, 3, pdf_radial_r2)
    for alpha in (0.3, 1.0):
        table = {k: c for k, c in enumerate(_parabolic_polynomial(alpha, 1.0).pieces[0]) if c}
        tables[f"parabolic {alpha}"] = (
            table, 3, lambda g, s, alpha=alpha: pdf_radial_parabolic(g, alpha, s))
    tables["x2y2z2"] = (_EX3_POLY, 3, pdf_example_3d)
    return tables


_TABLES = _polynomial_tables()
# the interior, the last decades before 2R, and the band where the former
# evaluator changed expansions
_SWEEP = np.concatenate([np.linspace(1e-3, 1.999999, 201), 2.0 - np.logspace(-7, -1, 13),
                         np.linspace(0.9, 1.5, 61)])


def _exact_table(table: dict, s, R: float) -> np.ndarray:
    R = F(R)
    out = []
    for v in s:
        t, acc = F(float(v)) / R, F(0)
        for k in range(max(table), -1, -1):
            acc = acc * t + table.get(k, 0)
        out.append(float(acc / R))
    return np.array(out)


@pytest.mark.parametrize("R", [1.0, 0.7, 3.0, 1e-100, 1e100])
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_polynomial_tables_no_worse_than_fixed_split(name, R):
    # the split where the two expansions' rounding bounds meet (1.09-1.45R
    # for these tables) against the former fixed 1.4R split
    table, n, evaluate = _TABLES[name]
    s = _SWEEP * R
    want = _exact_table(table, s, R)
    got = evaluate(BallGeometry(n, R), s)
    err = np.max(np.abs(got - want) / want)
    oracle = np.max(np.abs(ref.split_at_1p4r(table, s, R) - want) / want)
    assert err <= oracle, (err, oracle)
    assert err < (2e-13 if name == "x2y2z2" else 2e-14)


_SHELL_SETS = [((F(1, 2), F(1)), (1, 2)),
               ((F(1, 4), F(1, 2), F(3, 4), F(1)), (1, 2, 3, 4)),
               ((F(1, 3), F(1)), (2, 1)),
               ((F(99999, 100000), F(1)), (0, 1))]


@pytest.mark.parametrize("R", [1e100, 1e-100, 0.7])
@pytest.mark.parametrize("shells", _SHELL_SETS)
def test_shell_polynomial_at_every_radius(R, shells):
    # in absolute units the coefficients left the double range: 0.16-0.8
    # off at R = 1e100, OverflowError at R = 1e-100
    radii, dens = shells
    g = BallGeometry(3, R)
    model = MultiShell(tuple(float(r) * R for r in radii), dens)
    poly = multishell_polynomial(g, model)
    s = list(_SWEEP[::4] * R)
    for b in poly.breakpoints[1:-1]:
        s += [float(b) * (1.0 + sign * d) for d in (1e-9, 1e-6) for sign in (-1, 1)]
    s = np.array(s)
    got = pdf_multishell(g, model, s)
    want = np.array([float(poly.evaluate_exact(F(v))) for v in s])
    live = want != 0.0
    assert np.max(np.abs(got[live] - want[live]) / want[live]) <= 6.6e-16
    assert np.all(got[~live] == 0.0)
    if radii[-1] - radii[-2] > F(1, 1000):  # thin shells cancel in the cap-volume sum
        assert R * got == pytest.approx(R * _shells_pdf(g, model, s), rel=1e-12, abs=1e-12)


def test_polynomial_scalar_calls_match_array_elements():
    s = np.array([0.0, 1e-3, 0.5, 1.1, 1.3, 1.45, 1.9, 1.999999, 2.0])
    def shells(g, s):
        R = g.radius
        return pdf_multishell(g, MultiShell((0.25 * R, 0.5 * R, R), (3, 1, 2)), s)

    for n, evaluate in [(n, e) for _, n, e in _TABLES.values()] + [(3, shells)]:
        for R in (1.0, 0.7, 1e100):
            g = BallGeometry(n, R)
            whole = evaluate(g, s * R)
            for i, v in enumerate(s * R):
                one = evaluate(g, float(v))
                assert isinstance(one, float)
                assert one == whole[i], (n, R, v)


def test_piecewise_polynomial_is_one_class():
    import nballdist
    from nballdist import _series, symmetric
    assert nballdist.PiecewisePolynomial is symmetric.PiecewisePolynomial is _series.PiecewisePolynomial


def test_shell_sidecar_refuses_coefficients_out_of_range():
    # the s^5 coefficient of a shell piece scales as R^-6
    for R in (1e100, 1e-100):
        poly = multishell_polynomial(BallGeometry(3, R), MultiShell((0.5 * R, R), (1, 2)))
        with pytest.raises(PrecisionError):
            poly.to_json_dict()
    doc = multishell_polynomial(BallGeometry(3, 1e20), MultiShell((5e19, 1e20), (1, 2))).to_json_dict()
    assert all(c == 0.0 or abs(c) > 1e-300 for p in doc["pieces"] for c in p)
