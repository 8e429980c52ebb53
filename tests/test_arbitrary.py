"""Hyperspherical machinery, rotation operator, master formula, examples."""
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nballdist import (
    AngleSet,
    BallGeometry,
    CartesianMonomial,
    DomainError,
    Gaussian,
    GeneralCartesian,
    InvalidDensityError,
    MultiShell,
    ParabolicRadial,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
    pdf_example_2d,
    pdf_example_3d,
    pdf_example_4d,
    pdf_master,
    pdf_radial_numeric,
    pdf_radial_parabolic,
    pdf_radial_r2,
    pdf_uniform,
    rotation_matrix,
    spherical_to_cartesian,
)
import reference_forms as ref
from nballdist import arbitrary
from nballdist._rng import CounterStream
from nballdist.arbitrary import (
    _EX2_ASIN,
    _EX2_F1,
    _EX2_F2,
    _EX2_F3,
    _EX2_POLY,
    _EX3_POLY,
    _EX4_ASIN,
    _EX4_POLY,
    _EX4_SQRT,
    _cap_heights,
    _chunked_mean,
    _master_norm,
    _master_unnormalized_mc,
    _master_unnormalized_quad,
    _quad_levels,
    angles_from_direction,
)
from nballdist.core import (
    _row_sumsq,
    density_mass,
    density_radial_value,
    density_value,
    log_gamma,
    sphere_area,
)
from nballdist.montecarlo import _uniform_ball_points
from nballdist.uniform import overlap_kernels


def _random_angles(rng, n):
    return AngleSet(polars=tuple(rng.uniform(0.0, math.pi, n - 2)),
                    azimuth=float(rng.uniform(0.0, 2.0 * math.pi)))


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

def test_spherical_to_cartesian_anchors():
    v = spherical_to_cartesian(3, 1.0, AngleSet((math.pi / 2,), 0.0))
    assert v == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    v = spherical_to_cartesian(4, 1.0, AngleSet((0.0, 0.0), 0.3))
    assert v == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)
    v = spherical_to_cartesian(2, 2.0, AngleSet((), math.pi))
    assert v == pytest.approx([-2.0, 0.0], abs=1e-15)


def test_spherical_norm_preserved():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        for _ in range(25):
            r = float(rng.uniform(0.0, 5.0))
            v = spherical_to_cartesian(n, r, _random_angles(rng, n))
            assert np.linalg.norm(v) == pytest.approx(r, abs=1e-13)


def test_angle_count_enforced():
    with pytest.raises(DomainError):
        spherical_to_cartesian(4, 1.0, AngleSet((0.5,), 0.0))
    with pytest.raises(DomainError):
        AngleSet((3.5,), 0.0)  # polar angle must lie in [0, pi]


def test_angles_from_direction_roundtrip():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for _ in range(30):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            ang = angles_from_direction(u)
            assert spherical_to_cartesian(n, 1.0, ang) == pytest.approx(u, abs=1e-12)


# ---------------------------------------------------------------------------
# Rotation operator
# ---------------------------------------------------------------------------

def test_rotation_identity_at_zero():
    assert np.allclose(rotation_matrix(2, AngleSet((), 0.0)), np.eye(2))


def test_rotation_printed_3x3():
    th, ph = 0.7, 1.3
    m = rotation_matrix(3, AngleSet((th,), ph))
    ct, st, cp, sp = math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)
    want = np.array([[ct * cp, ct * sp, -st], [-sp, cp, 0.0], [st * cp, st * sp, ct]])
    assert np.max(np.abs(m - want)) == 0.0


def test_rotation_printed_4x4_rows():
    t1, t2, ph = 0.6, 1.1, 2.0
    m = rotation_matrix(4, AngleSet((t1, t2), ph))
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    cp, sp = math.cos(ph), math.sin(ph)
    assert m[0] == pytest.approx([c1 * cp, c1 * sp, -s1, 0.0], abs=1e-15)
    assert m[1] == pytest.approx([-sp, cp, 0.0, 0.0], abs=1e-15)
    assert m[2] == pytest.approx([c2 * s1 * cp, c2 * s1 * sp, c2 * c1, -s2], abs=1e-15)
    assert m[3] == pytest.approx([s2 * s1 * cp, s2 * s1 * sp, s2 * c1, c2], abs=1e-15)


def test_rotation_orthogonality_det_1000_sets():
    rng = np.random.default_rng(7)
    count = 0
    for n in range(2, 9):
        for _ in range(143):
            ang = _random_angles(rng, n)
            m = rotation_matrix(n, ang)
            assert np.max(np.abs(m @ m.T - np.eye(n))) < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-10
            count += 1
    assert count >= 1000


def test_rotation_direction_row_identity():
    # the product places the direction unit vector in the last row for n >= 3;
    # the printed 2x2 convention carries it in the first row instead
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(50):
            ang = _random_angles(rng, n)
            m = rotation_matrix(n, ang)
            u = spherical_to_cartesian(n, 1.0, ang)
            row = m[0] if n == 2 else m[-1]
            assert np.array_equal(row, u)  # same arithmetic path, bit-identical


def test_rotation_preserves_shift_norm():
    rng = np.random.default_rng(9)
    for n in range(2, 9):
        for _ in range(20):
            ang = _random_angles(rng, n)
            m = rotation_matrix(n, ang)
            s = np.zeros(n)
            s[-1] = 1.7
            assert np.linalg.norm(m.T @ s) == pytest.approx(1.7, abs=1e-12)


def test_rotation_row_structure_rules():
    rng = np.random.default_rng(13)
    for n in range(4, 8):
        ang = _random_angles(rng, n)
        m = rotation_matrix(n, ang)
        t = ang.polars
        cp, sp = math.cos(ang.azimuth), math.sin(ang.azimuth)
        # row 1: cos(t1) cos(phi), cos(t1) sin(phi), -sin(t1), 0...
        assert m[0, 0] == pytest.approx(math.cos(t[0]) * cp, abs=1e-14)
        assert m[0, 2] == pytest.approx(-math.sin(t[0]), abs=1e-14)
        assert np.all(m[0, 3:] == 0.0)
        # row 2: -sin(phi), cos(phi), 0...
        assert m[1, :2] == pytest.approx([-sp, cp], abs=1e-15)
        assert np.all(m[1, 2:] == 0.0)
        # rows 3..n-1: cos(t_{i-1}) x_m[i] pattern, -sin(t_{i-1}) at i+1, zeros past
        for i in range(3, n):
            unit_i = spherical_to_cartesian(i, 1.0, AngleSet(t[: i - 2], ang.azimuth))
            assert m[i - 1, :i] == pytest.approx(math.cos(t[i - 2]) * unit_i, abs=1e-13)
            assert m[i - 1, i] == pytest.approx(-math.sin(t[i - 2]), abs=1e-14)
            assert np.all(m[i - 1, i + 1:] == 0.0)


# ---------------------------------------------------------------------------
# Printed example PDFs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn,n", [(pdf_example_2d, 2), (pdf_example_3d, 3), (pdf_example_4d, 4)])
def test_examples_vanish_at_both_ends(fn, n):
    g = BallGeometry(n, 1.0)
    assert fn(g, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert fn(g, 2.0) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("fn,n", [(pdf_example_2d, 2), (pdf_example_3d, 3), (pdf_example_4d, 4)])
def test_examples_normalized(fn, n):
    g = BallGeometry(n, 1.0)
    # substitution s = 2 sin(psi) removes the sqrt endpoint behavior
    total, _ = quad(lambda psi: fn(g, 2.0 * math.sin(psi)) * 2.0 * math.cos(psi),
                    0.0, math.pi / 2.0, epsabs=1e-12, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_example_values_frozen():
    assert pdf_example_2d(BallGeometry(2, 1.0), 1.0) == pytest.approx(0.4002517965573418, rel=1e-13)
    assert pdf_example_3d(BallGeometry(3, 1.0), 1.0) == pytest.approx(396315.0 / 585728.0, rel=1e-13)
    assert pdf_example_4d(BallGeometry(4, 1.0), 1.0) == pytest.approx(0.4889745270695727, rel=1e-13)


def _printed_form_mp(poly, roots, asin, s, R):
    """poly(s) - sqrt(4R^2 - s^2)/pi sum of the root tables, each sum_k c_k s^k / R^(k+2),
    - asin(s/2R)/pi asin(s) at 50 digits, from the printed tables (poly and
    asin carry R^(k+1)); ``roots`` holds (sign, table) pairs."""
    with mp.workdps(50):
        s, R = mp.mpf(s), mp.mpf(R)

        def ev(table, extra):
            return sum(mp.mpf(c.numerator) / c.denominator * s ** k / R ** (k + 1 + extra)
                       for k, c in table.items())
        root = sum(sign * ev(table, 1) for sign, table in roots)
        return (ev(poly, 0) - mp.sqrt(4 * R * R - s * s) / mp.pi * root
                - mp.asin(s / (2 * R)) / mp.pi * ev(asin, 0))


@pytest.mark.parametrize("n,R", [(2, 1.0), (2, 3.0), (4, 1.0), (4, 3.0)])
def test_examples_2d_4d_against_mpmath(n, R):
    # the three printed terms cancelled near 2R: 3.5e-11 (2d) and 3.4e-10 (4d)
    # relative on this grid at R = 1, 2.3e-10 and 8.6e-10 at R = 3
    if n == 2:
        fn, tables = pdf_example_2d, (_EX2_POLY, ((1, _EX2_F1), (1, _EX2_F2), (-1, _EX2_F3)),
                                      _EX2_ASIN)
    else:
        fn, tables = pdf_example_4d, (_EX4_POLY, ((1, _EX4_SQRT),), _EX4_ASIN)
    s = np.linspace(0.01, 1.99, 397) * R
    got = fn(BallGeometry(n, R), s)
    for x, v in zip(s, got):
        want = _printed_form_mp(*tables, float(x), R)
        assert v == pytest.approx(float(want), rel=1e-12), x


def test_example_asin_tables_are_twice_the_polynomials():
    # the premise of arbitrary._theta_form, which sums both printed forms
    assert _EX2_ASIN == {k: 2 * c for k, c in _EX2_POLY.items()}
    assert _EX4_ASIN == {k: 2 * c for k, c in _EX4_POLY.items()}


def test_example_3d_matches_exact_rationals_up_to_2r():
    # the powers of s cancel near s = 2R; the closed form must keep its relative accuracy
    g = BallGeometry(3, 1.0)
    s = np.linspace(0.0, 2.0, 4002)[1:-1]
    got = pdf_example_3d(g, s)
    for x, v in zip(s, got):
        exact = float(sum(c * Fraction(float(x)) ** k for k, c in _EX3_POLY.items()))
        assert v == pytest.approx(exact, rel=1e-12), x


def test_examples_scale_covariance():
    for fn, n in [(pdf_example_2d, 2), (pdf_example_3d, 3), (pdf_example_4d, 4)]:
        for t in (0.3, 1.2, 1.9):
            lhs = fn(BallGeometry(n, 2.0), 2.0 * t)
            rhs = fn(BallGeometry(n, 1.0), t) / 2.0
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_examples_dimension_guards():
    with pytest.raises(UnsupportedError):
        pdf_example_2d(BallGeometry(3, 1.0), 0.5)
    with pytest.raises(UnsupportedError):
        pdf_example_3d(BallGeometry(2, 1.0), 0.5)
    with pytest.raises(UnsupportedError):
        pdf_example_4d(BallGeometry(3, 1.0), 0.5)


# ---------------------------------------------------------------------------
# Master formula
# ---------------------------------------------------------------------------

def test_master_quadrature_uniform_reduces():
    g = BallGeometry(2, 1.0)
    est = pdf_master(g, Uniform(), 1.0, "quadrature", 1e-6)
    assert est.value == pytest.approx(pdf_uniform(g, 1.0), abs=1e-8)
    assert abs(est.value - pdf_uniform(g, 1.0)) <= max(est.error, 1e-8)


def test_master_quadrature_matches_printed_2d():
    g = BallGeometry(2, 1.0)
    for s in np.linspace(0.1, 1.9, 10):
        est = pdf_master(g, CartesianMonomial((4, 4)), float(s), "quadrature", 1e-6)
        assert est.value == pytest.approx(pdf_example_2d(g, float(s)), abs=1e-6)


def test_master_quadrature_radial_consistency_n3():
    g = BallGeometry(3, 1.0)
    dens = ParabolicRadial(1.0)
    for s in (0.5, 1.0, 1.5):
        est = pdf_master(g, dens, s, "quadrature", 1e-4)
        want = pdf_radial_parabolic(g, 1.0, s)
        assert abs(est.value - want) <= max(3.0 * est.error, 2e-4)


def test_master_mc_matches_printed_3d():
    g = BallGeometry(3, 1.0)
    for s in (0.6, 1.0, 1.5):
        est = pdf_master(g, CartesianMonomial((2, 2, 2)), s, "montecarlo", 150_000, seed=11)
        want = pdf_example_3d(g, s)
        assert abs(est.value - want) <= 4.0 * est.error


def test_master_mc_matches_printed_4d():
    g = BallGeometry(4, 1.0)
    for s in (0.8, 1.2):
        est = pdf_master(g, CartesianMonomial((4, 0, 0, 0)), s, "montecarlo", 150_000, seed=12)
        want = pdf_example_4d(g, s)
        assert abs(est.value - want) <= 4.0 * est.error


@pytest.mark.parametrize("n,exponents,closed_form", [
    (4, (4, 0, 0, 0), pdf_example_4d), (3, (2, 2, 2), pdf_example_3d)])
def test_master_mc_error_bar_is_calibrated(n, exponents, closed_form):
    # z = (estimate - exact) / error over 100 seeds at two distances: an honest
    # standard error gives std(z) near 1
    g = BallGeometry(n, 1.0)
    z = []
    for s in (0.6, 1.4):
        want = closed_form(g, s)
        for seed in range(100):
            est = pdf_master(g, CartesianMonomial(exponents), s, "montecarlo", 5000, seed=seed)
            z.append((est.value - want) / est.error)
    assert 0.8 <= np.std(z) <= 1.2


def test_master_mc_radial_consistency():
    # radial density through the fully general machinery vs the radial reducer
    g = BallGeometry(3, 1.0)
    dens = RadialPolynomial((0, 0, 1))
    est = pdf_master(g, dens, 1.0, "montecarlo", 200_000, seed=5)
    want = pdf_radial_numeric(g, dens, 1.0, tol=1e-7)
    assert abs(est.value - want) <= 4.0 * est.error
    assert pdf_radial_r2(g, 1.0) == pytest.approx(want, abs=1e-6)


def test_master_density_scale_invariance():
    g = BallGeometry(2, 1.0)
    a = pdf_master(g, CartesianMonomial((2, 2)), 0.9, "quadrature", 1e-6).value
    scaled = lambda pts: 7.5 * np.prod(pts ** 2, axis=-1)
    from nballdist import GeneralCartesian
    b = pdf_master(g, GeneralCartesian(scaled, bound=10.0), 0.9, "quadrature", 1e-6).value
    assert a == pytest.approx(b, rel=1e-9)


def test_master_mc_deterministic():
    g = BallGeometry(3, 1.0)
    d = CartesianMonomial((2, 2, 2))
    a = pdf_master(g, d, 0.7, "montecarlo", 50_000, seed=3)
    b = pdf_master(g, d, 0.7, "montecarlo", 50_000, seed=3)
    assert a == b


def test_master_guards():
    with pytest.raises(UnsupportedError):
        pdf_master(BallGeometry(4, 1.0), CartesianMonomial((2, 0, 0, 0)), 0.5, "quadrature")
    with pytest.raises(UnsupportedError):
        pdf_master(BallGeometry(7, 1.0), Uniform(), 0.5, "montecarlo", 1000)
    with pytest.raises(InvalidDensityError):
        pdf_master(BallGeometry(3, 1.0), Gaussian(1.0), 0.5, "montecarlo", 1000)
    with pytest.raises(UnsupportedError):
        pdf_master(BallGeometry(2, 1.0), Uniform(), 0.5, "bogus")
    with pytest.raises(InvalidDensityError):
        zero = GeneralCartesian(lambda pts: np.zeros(len(pts)), bound=1.0)
        pdf_master(BallGeometry(2, 1.0), zero, 0.5, "quadrature")


def _monomial_mass_reference(exponents, radius):
    """Int over the ball of prod x_i^e_i by slicing off x_1: the remaining
    (n-1)-ball integral scales as rho^(n-1+|e'|), leaving 1-D quadratures."""
    if not exponents:
        return 1.0
    e, rest = exponents[0], exponents[1:]
    power = len(rest) + sum(rest)
    val, _ = quad(lambda x: x ** e * (radius * radius - x * x) ** (power / 2.0),
                  -radius, radius, epsabs=0.0, epsrel=1e-13, limit=200)
    return val * _monomial_mass_reference(rest, 1.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_density_mass_matches_independent_integration(n):
    R = 1.3
    g = BallGeometry(n, R)
    monomial = tuple((2 * i) % 6 for i in range(n))
    assert density_mass(CartesianMonomial(monomial), g) == pytest.approx(
        _monomial_mass_reference(monomial, R), rel=1e-11)
    area = n * _monomial_mass_reference((0,) * n, 1.0)
    radial = [Uniform(), RadialPolynomial((2.0, -1.0, 0.5, 0.25)), ParabolicRadial(0.7),
              MultiShell((0.4, 0.9, 1.3), (3.0, 0.0, 1.5))]
    for model in radial:
        want, _ = quad(lambda r: r ** (n - 1) * float(density_radial_value(model, r, g)),
                       0.0, R, epsabs=0.0, epsrel=1e-13, limit=200, points=(0.4, 0.9))
        assert density_mass(model, g) == pytest.approx(area * want, rel=1e-11), model


def test_master_quadrature_integrates_to_exact_norm():
    # Int_0^2R f ds with s = 2R sin(psi), against (Int_B rho)^2 / 2
    g = BallGeometry(2, 1.0)
    d = CartesianMonomial((4, 4))
    nodes, weights = np.polynomial.legendre.leggauss(48)
    psi = (nodes + 1.0) * math.pi / 4.0
    f = [_master_unnormalized_quad(g, d, 2.0 * math.sin(p), _quad_levels(2, 1e-6)) for p in psi]
    total = float(np.sum(weights * math.pi / 4.0 * np.array(f) * 2.0 * np.cos(psi)))
    assert total == pytest.approx(_master_norm(g, d, "quadrature", 1e-6, 0)[0], rel=1e-12)
    assert _master_norm(g, d, "quadrature", 1e-6, 0)[1] == 0.0


def test_master_mc_general_cartesian_matches_monomial():
    g = BallGeometry(2, 1.0)
    general = GeneralCartesian(lambda pts: 3.0 * np.prod(pts ** 4, axis=-1), bound=1.0)
    for s in (0.5, 1.0, 1.5):
        exact = pdf_master(g, CartesianMonomial((4, 4)), s, "montecarlo", 100_000, seed=8)
        est = pdf_master(g, general, s, "montecarlo", 100_000, seed=8)
        # same integrand stream: the difference is the estimated mass alone
        assert est.error > exact.error
        assert abs(est.value - exact.value) <= 3.0 * est.error


# (2,2,2)@3 at tol 1e-6 and (4,4)@2 at tol 1e-8, at s = 0.2, 0.6, 1.0, 1.4, 1.8
_MASTER_QUAD_PINS = {
    (2, 2, 2): (0.20359265053989614, 0.24164882880897742, 0.6766195230550718,
                0.9352467279477397, 0.5386938462039317),
    (4, 4): (0.6527301900110274, 0.09767219036130409, 0.40025179655730614,
             0.8477934509500619, 0.821057359378536),
}


@pytest.mark.parametrize("exponents,tol", [((2, 2, 2), 1e-6), ((4, 4), 1e-8)])
def test_master_quadrature_values_pinned(exponents, tol):
    g = BallGeometry(len(exponents), 1.0)
    got = [pdf_master(g, CartesianMonomial(exponents), s, "quadrature", tol).value
           for s in (0.2, 0.6, 1.0, 1.4, 1.8)]
    assert tuple(got) == _MASTER_QUAD_PINS[exponents]


def _exact_monomial(row, exponents):
    value = Fraction(1)
    for x, e in zip(row, exponents):
        value *= Fraction(float(x)) ** e
    return value


@pytest.mark.parametrize("n", range(1, 7))
def test_monomials_are_exactly_even(n):
    rng = np.random.default_rng(700 + n)
    models = [tuple(e if i == j else 0 for i in range(n)) for e in (2, 4, 6, 8)
              for j in rng.integers(0, n, 2)]
    models += [tuple(int(e) for e in rng.choice((0, 2, 4, 6, 8), n)) for _ in range(12)]
    for exponents in models:
        model = CartesianMonomial(exponents)
        pts = rng.uniform(-1.3, 1.3, (40, n))
        got = density_value(model, pts)
        for _ in range(3):
            signs = rng.choice((-1.0, 1.0), (40, n))
            assert np.array_equal(density_value(model, pts * signs), got), exponents
        # a single |x|^e is within 1 ulp of exact; k > 1 factors carry k powers
        # of at most 1 ulp (2^-52 relative) and k - 1 products of half that
        k = sum(1 for e in exponents if e)
        rel = Fraction((3 * k - 1) / 2 * (1.0 + 1e-6) * 2.0 ** -52)
        for row, value in zip(pts, got):
            exact = _exact_monomial(row, exponents)
            err = abs(Fraction(float(value)) - exact)
            if k <= 1:
                assert err <= Fraction(float(np.spacing(float(exact)))), (exponents, row)
            else:
                assert err <= rel * exact, (exponents, row)


def _block_densities(n):
    def callback(pts):
        assert pts.ndim == 2 and pts.shape[1] == n
        return 1.0 + pts[:, 0] ** 2 * np.abs(pts[:, -1])
    monomials = [(2, 2), (4, 2), (6, 0)] if n == 2 else [(2, 2, 2), (4, 0, 2), (6, 2, 0)]
    return [CartesianMonomial(e) for e in monomials] + [
        RadialPolynomial((1.0, 0.5, -0.3)),
        MultiShell((0.52, 1.3), (1.0, 2.5)),
        GeneralCartesian(callback, bound=4.0),
    ]


@pytest.mark.parametrize("tol", [1e-2, 1e-6])
@pytest.mark.parametrize("n", [2, 3])
def test_master_quadrature_blocks_match_per_rotation(n, tol):
    g = BallGeometry(n, 1.3)
    nodes = _quad_levels(n, tol)
    for density in _block_densities(n):
        for s in (0.05, 0.6, 1.3, 1.9, 2.55):
            assert _master_unnormalized_quad(g, density, s, nodes) == \
                ref.master_quad_per_rotation(g, density, s, nodes), (density, s)


@pytest.mark.parametrize("block_points", [1, 5000, 10 ** 9])
@pytest.mark.parametrize("n", [2, 3])
def test_master_quadrature_block_size_changes_no_bit(n, block_points, monkeypatch):
    g = BallGeometry(n, 1.0)
    nodes = _quad_levels(n, 1e-2)
    densities = _block_densities(n)[1:4:2]
    want = [_master_unnormalized_quad(g, d, 0.7, nodes) for d in densities]
    monkeypatch.setattr(arbitrary, "_QUAD_BLOCK_POINTS", block_points)
    assert [_master_unnormalized_quad(g, d, 0.7, nodes) for d in densities] == want


def _master_mc_drawn_whole(geometry, density, s, samples, stream):
    """The Monte Carlo master integrand with every chunk's k n normals, cap
    heights and perpendicular points drawn whole, in stream order."""
    n, R = geometry.dimension, geometry.radius
    q, _ = overlap_kernels(geometry, s)
    v_cap = math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n + 1) / 2.0)) * q
    scale = s ** (n - 1) * v_cap * sphere_area(n)

    def draw(k):
        u = stream.normals(k * n).reshape(k, n)
        norm = np.sqrt(_row_sumsq(u))
        norm[norm == 0.0] = 1.0
        u /= norm[:, None]
        v = np.eye(n)[-1] - u
        vv = _row_sumsq(v)
        vv[vv == 0.0] = 1.0
        xn = _cap_heights(geometry, s, stream, k)
        perp = _uniform_ball_points(BallGeometry(n - 1, 1.0), stream, k)
        HX = np.empty((k, n))
        np.multiply(perp, np.sqrt(R * R - xn * xn)[:, None], out=HX[:, :-1])
        HX[:, -1] = xn
        HX -= v * (2.0 * np.sum(HX * v, axis=1) / vv)[:, None]
        u *= s
        np.subtract(HX, u, out=u)
        return density_value(density, HX, geometry) * density_value(density, u, geometry)
    mean, err = _chunked_mean(samples, draw)
    return scale * mean, scale * err


@pytest.mark.parametrize("budget", [1001, 65537, 131072])
@pytest.mark.parametrize("n", range(2, 7))
def test_master_mc_windows_match_the_whole_draw(n, budget):
    # odd chunks (1001, and the last sample of 65537) are drawn whole; even
    # chunks pair window by pair window, and the stream resumes where the
    # whole draw would leave it
    g = BallGeometry(n, 1.0)
    d = CartesianMonomial((2,) + (0,) * (n - 2) + (2,))
    for s in (0.3, 1.1):
        got_stream, want_stream = CounterStream(5, 1), CounterStream(5, 1)
        got = _master_unnormalized_mc(g, d, s, budget, got_stream)
        assert got == _master_mc_drawn_whole(g, d, s, budget, want_stream)
        assert got_stream.counter == want_stream.counter


@pytest.mark.parametrize("n", [2, 3, 5])
def test_master_mc_mass_windows_match_the_whole_draw(n):
    g = BallGeometry(n, 1.0)
    general = GeneralCartesian(lambda pts: 1.0 + pts[..., 0] ** 2, bound=2.0)
    for budget in (1001, 65537, 131072):
        stream = CounterStream(9, 2)
        mean, err = _chunked_mean(budget, lambda k: density_value(
            general, _uniform_ball_points(g, stream, k), g))
        mass = density_mass(Uniform(), g) * mean
        norm, rel = _master_norm(g, general, "montecarlo", budget, 9)
        assert norm == mass * mass / 2.0
        assert rel == 2.0 * density_mass(Uniform(), g) * err / abs(mass)


@pytest.mark.parametrize("n", range(2, 7))
def test_master_mc_memory_is_bounded(n):
    # at the default budget of 2e5 samples the whole draw held about eight
    # 65536 x n temporaries: 6.8 MiB at n = 2, 14.8 MiB at n = 6
    g = BallGeometry(n, 1.0)
    d = CartesianMonomial((2,) + (0,) * (n - 1))
    pdf_master(g, d, 0.7, "montecarlo", 1001)
    tracemalloc.start()
    try:
        pdf_master(g, d, 0.7, "montecarlo", 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20
