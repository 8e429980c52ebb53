"""Hyperspherical machinery, rotation operator, master formula, examples."""
import math

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
from nballdist.arbitrary import (
    _master_norm,
    _master_unnormalized_quad,
    _quad_levels,
    angles_from_direction,
)
from nballdist.core import density_mass, density_radial_value


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
