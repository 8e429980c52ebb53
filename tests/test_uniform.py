"""Uniform-ball pair-distance PDF: representations, kernels, properties."""
import math
import warnings
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import reference_forms as ref
from nballdist import (
    BallGeometry,
    DomainError,
    InvalidRepresentationError,
    PrecisionError,
    Representation,
    beta,
    cumulative_c,
    endpoint_properties,
    generating_series,
    overlap_kernels,
    pdf_uniform,
    pdf_uniform_repr,
)
from nballdist.core import DivergentMomentError, double_factorial
from nballdist.uniform import (
    normalization_constant,
    odd_series_coefficients,
    q_kernel_quadrature,
)

ALL_REPS = list(Representation)


def valid_reps(n):
    for rep in ALL_REPS:
        if rep is Representation.ODD_SERIES and n % 2 == 0:
            continue
        if rep is Representation.EVEN_SERIES and n % 2 == 1:
            continue
        yield rep


# ---------------------------------------------------------------------------
# Closed-form anchor values
# ---------------------------------------------------------------------------

def test_p3_anchor():
    g = BallGeometry(3, 1.0)
    assert pdf_uniform(g, 1.0) == pytest.approx(0.9375, abs=1e-12)


def test_p2_anchor():
    g = BallGeometry(2, 1.0)
    want = 4.0 / 3.0 - math.sqrt(3.0) / math.pi  # = 0.7820044379115412
    assert pdf_uniform(g, 1.0) == pytest.approx(want, abs=1e-12)


def test_pn_vanishes_at_diameter():
    for n in (1, 2, 5, 9):
        g = BallGeometry(n, 1.0)
        assert pdf_uniform(g, 2.0) == 0.0


def test_odd_series_exact_coefficients():
    assert odd_series_coefficients(3) == {2: F(3), 3: F(-9, 4), 5: F(3, 16)}
    assert odd_series_coefficients(5) == {4: F(5), 5: F(-75, 16), 7: F(25, 32), 9: F(-15, 256)}
    assert odd_series_coefficients(1) == {0: F(1), 1: F(-1, 2)}


def test_printed_p2_p4_pointwise():
    for n, closed in ((2, ref.p2_closed), (4, ref.p4_closed)):
        g = BallGeometry(n, 1.0)
        for s in np.linspace(0.0, 2.0, 101):
            assert pdf_uniform(g, float(s)) == pytest.approx(closed(float(s)), abs=1e-10)


def test_domain_errors():
    g = BallGeometry(3, 1.0)
    with pytest.raises(DomainError):
        pdf_uniform(g, -0.1)
    with pytest.raises(DomainError):
        pdf_uniform(g, 2.0001)


def _pdf_uniform_mpmath(n, s, radius=1.0):
    with mp.workdps(50):
        s, R = mp.mpf(s), mp.mpf(radius)
        x = 1 - s * s / (4 * R * R)
        return n * s ** (n - 1) / R ** n * mp.betainc(mp.mpf(n + 1) / 2, 0.5, 0, x,
                                                      regularized=True)


# R = 0.7 and 3 are not powers of two, so s/2R rounds before 1 - s/2R is formed
@pytest.mark.parametrize("n,R", [pytest.param(n, 1.0, id=str(n)) for n in (1, 2, 3, 5, 7, 9, 50, 200)]
                         + [(3, 0.7), (3, 3.0), (5, 3.0), (9, 3.0), (100, 0.7), (100, 3.0)])
def test_pdf_uniform_against_mpmath(n, R):
    g = BallGeometry(n, R)
    grid = R * np.array([1e-8, 1e-6, 1e-3, 0.3, 1.0, 1.7, 1.99, 1.9999, 1.999999])
    got = pdf_uniform(g, grid)
    for s, value in zip(grid, got):
        want = _pdf_uniform_mpmath(n, float(s), R)
        if want < 1e-300:
            assert 0.0 <= value <= 1e-300
        else:
            assert value == pytest.approx(float(want), rel=1e-12, abs=0.0), (n, s)
        if s >= 1.99 * R:
            # the incomplete-beta representation and Q_n take x from _x_of
            assert pdf_uniform_repr(g, float(s), Representation.INC_BETA) == pytest.approx(
                float(want), rel=1e-12, abs=0.0), (n, s)
            with mp.workdps(50):
                x = 1 - (mp.mpf(float(s)) / (2 * mp.mpf(R))) ** 2
                q = mp.mpf(R) ** n / 2 * mp.betainc(mp.mpf(n + 1) / 2, 0.5, 0, x)
            assert overlap_kernels(g, float(s))[0] == pytest.approx(float(q), rel=1e-12, abs=0.0), (n, s)


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("R", [1.0, 3.0])
def test_odd_series_near_2r_against_mpmath(n, R):
    # summed in powers of s the series was 2.1e-8 off at n = 3, s = 1.9999R;
    # above 1.4R it is summed in powers of 2R - s
    g = BallGeometry(n, R)
    for t in (1e-6, 0.3, 1.0, 1.39, 1.41, 1.7, 1.99, 1.9999, 1.999999):
        s = t * R
        want = float(_pdf_uniform_mpmath(n, s, R))
        got = pdf_uniform_repr(g, s, Representation.ODD_SERIES)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (n, R, t)


@pytest.mark.parametrize("R", [1e-20, 1e20])
def test_odd_polynomial_at_extreme_radii(R):
    # the n = 9 polynomial has degree 17, and R^18 leaves the double range at
    # these radii: it is summed in s/R
    g = BallGeometry(9, R)
    grid = R * np.array([0.0, 1e-3, 0.5, 1.0, 1.5, 1.9999, 2.0])
    got = pdf_uniform(g, grid)
    want = pdf_uniform_repr(g, float(grid[3]), Representation.REG_INC_BETA)
    assert np.all(np.isfinite(got)) and got[0] == 0.0 and got[-1] == 0.0
    assert got[3] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 50, 200])
def test_pdf_uniform_across_the_complement_switch(n):
    # I_x((n+1)/2, 1/2) comes from 1 - I_y(1/2, (n+1)/2) up to the median of
    # Beta(1/2, (n+1)/2) in y = s^2/4R^2 and from betaincc beyond it
    from scipy import special
    y_med = special.betaincinv(0.5, (n + 1) / 2.0, 0.5)
    s = 2.0 * np.sqrt(y_med * np.array([0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1, 2.0]))
    got = pdf_uniform(BallGeometry(n, 1.0), s)
    for v, x in zip(got, s):
        assert v == pytest.approx(float(_pdf_uniform_mpmath(n, float(x))), rel=1e-12, abs=0.0), (n, x)


@pytest.mark.parametrize("n,s", [(1000, 1.9), (1000, 1.5), (1500, 1.2), (1500, 1.9)])
def test_pdf_uniform_large_n_does_not_underflow(n, s):
    # I_x underflows (about 1e-506 at n = 1000, s = 1.9) before the product
    # with s^(n-1) brings the value back into range; past n = 1024 s^(n-1)
    # itself can overflow
    want = float(_pdf_uniform_mpmath(n, s))
    got = pdf_uniform(BallGeometry(n, 1.0), s)
    if want < 1e-300:
        assert 0.0 <= got <= 1e-300
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
    if (n, s) == (1000, 1.9):
        # the same at 50 and 120 digits
        assert want == pytest.approx(7.861432611145936e-227, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_pdf_uniform_array_in_array_out(n):
    g = BallGeometry(n, 1.5)
    grid = np.linspace(0.0, 3.0, 24).reshape(4, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = pdf_uniform(g, grid)
    assert values.shape == (4, 6)
    assert values.flat[0] == (1.0 / 1.5 if n == 1 else 0.0) and values.flat[-1] == 0.0
    for s, v in zip(grid.ravel(), values.ravel()):
        got = pdf_uniform(g, float(s))
        assert isinstance(got, float) and got == pytest.approx(v, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        pdf_uniform(g, np.array([1.0, 3.0001]))


# ---------------------------------------------------------------------------
# Representation cross-agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_representations_agree(n, R):
    g = BallGeometry(n, R)
    grid = np.linspace(0.0, 2.0 * R, 43)[1:-1]  # 41 interior points
    for s in grid:
        base = pdf_uniform_repr(g, float(s), Representation.REG_INC_BETA)
        for rep in valid_reps(n):
            assert pdf_uniform_repr(g, float(s), rep) == pytest.approx(base, abs=1e-8)


def test_parity_mismatch_raises():
    with pytest.raises(InvalidRepresentationError):
        pdf_uniform_repr(BallGeometry(2, 1.0), 0.5, Representation.ODD_SERIES)
    with pytest.raises(InvalidRepresentationError):
        pdf_uniform_repr(BallGeometry(3, 1.0), 0.5, Representation.EVEN_SERIES)


def test_all_reps_zero_at_origin_for_n4():
    g = BallGeometry(4, 1.0)
    for rep in valid_reps(4):
        assert pdf_uniform_repr(g, 0.0, rep) == 0.0


# ---------------------------------------------------------------------------
# Normalization, endpoints, mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_normalization(n):
    g = BallGeometry(n, 1.0)
    total, _ = quad(lambda s: pdf_uniform(g, s), 0.0, 2.0, epsabs=1e-12, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_endpoint_table():
    assert endpoint_properties(BallGeometry(1, 2.0)) == {
        "P(0)": 0.5, "P(2R)": 0.0, "P'(0)": -0.125, "P'(2R)": -0.125}
    assert endpoint_properties(BallGeometry(2, 1.0)) == {
        "P(0)": 0.0, "P(2R)": 0.0, "P'(0)": 2.0, "P'(2R)": 0.0}
    assert endpoint_properties(BallGeometry(7, 1.0)) == {
        "P(0)": 0.0, "P(2R)": 0.0, "P'(0)": 0.0, "P'(2R)": 0.0}


def test_endpoint_table_matches_numeric_limits():
    # confirmatory finite-difference check; h large enough that the
    # representation granularity of 1 - s^2/4R^2 near s = 0 stays harmless
    h = 1e-5
    g1 = BallGeometry(1, 1.0)
    assert (pdf_uniform(g1, h) - pdf_uniform(g1, 0.0)) / h == pytest.approx(-0.5, abs=1e-3)
    g2 = BallGeometry(2, 1.0)
    assert pdf_uniform(g2, h) / h == pytest.approx(2.0, abs=1e-3)
    g5 = BallGeometry(5, 1.0)
    assert (pdf_uniform(g5, 2.0 - h) - 0.0) / h == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("n", range(2, 9))
def test_mode_is_interior(n):
    g = BallGeometry(n, 1.0)
    grid = np.linspace(0.0, 2.0, 2001)
    vals = np.array([pdf_uniform(g, float(s)) for s in grid])
    k = int(np.argmax(vals))
    assert 0 < k < len(grid) - 1
    assert vals[k] > vals[0] and vals[k] > vals[-1]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(n=st.integers(1, 8), R=st.floats(0.1, 10.0), t=st.floats(0.01, 1.99))
def test_scale_covariance(n, R, t):
    # P_n(s; R) = (1/R) P_n(s/R; 1)
    lhs = pdf_uniform(BallGeometry(n, R), t * R)
    rhs = pdf_uniform(BallGeometry(n, 1.0), t) / R
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Overlap kernels and the cumulative C function
# ---------------------------------------------------------------------------

def test_overlap_kernel_values():
    g2 = BallGeometry(2, 1.0)
    q, t = overlap_kernels(g2, 0.0)
    assert q == pytest.approx(math.pi / 4.0, rel=1e-13)
    g3 = BallGeometry(3, 1.0)
    q3, t3 = overlap_kernels(g3, 1.0)
    assert q3 == pytest.approx(5.0 / 24.0, rel=1e-13)
    assert t3 == pytest.approx(5.0 / 24.0, rel=1e-13)  # s^(n-1) = 1 here
    for n in (1, 2, 5):
        q, t = overlap_kernels(BallGeometry(n, 1.0), 2.0)
        assert q == 0.0 and t == 0.0


def test_overlap_kernel_at_zero_is_half_beta():
    for n in range(1, 9):
        q, _ = overlap_kernels(BallGeometry(n, 1.3), 0.0)
        assert q == pytest.approx(1.3 ** n / 2.0 * beta((n + 1) / 2.0, 0.5), rel=1e-12)


def test_overlap_kernel_matches_quadrature():
    for n in (2, 3, 6):
        g = BallGeometry(n, 1.0)
        for s in (0.3, 1.0, 1.8):
            assert overlap_kernels(g, s)[0] == pytest.approx(
                q_kernel_quadrature(g, s), abs=1e-10)


def test_lens_area_identity():
    # 4 Q_2(s) equals the classical two-circle overlap area
    for R in (1.0, 2.5):
        g = BallGeometry(2, R)
        for s in np.linspace(0.0, 2.0 * R, 41):
            q, _ = overlap_kernels(g, float(s))
            lens = 2.0 * R * R * math.acos(s / (2.0 * R)) \
                - (s / 2.0) * math.sqrt(4.0 * R * R - s * s)
            assert 4.0 * q == pytest.approx(lens, abs=1e-10)


def test_cumulative_c_normalization():
    # C(2R; 0, n) = (1/2n) B((n+1)/2, 1/2) R^(2n) and the parity forms
    for n in range(1, 9):
        for R in (1.0, 2.0):
            g = BallGeometry(n, R)
            got = cumulative_c(g, 2.0 * R, 0)
            assert got == pytest.approx(normalization_constant(g), rel=1e-12)
            if n % 2 == 0:
                parity = math.pi / (2 * n) * double_factorial(n - 1) / double_factorial(n) * R ** (2 * n)
            else:
                parity = 1.0 / n * double_factorial(n - 1) / double_factorial(n) * R ** (2 * n)
            assert got == pytest.approx(parity, rel=1e-12)


def test_cumulative_c_examples():
    g3 = BallGeometry(3, 1.0)
    assert cumulative_c(g3, 2.0, 0) == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert cumulative_c(g3, 0.0, 5) == 0.0
    # even-n parity form (pi/2n)((n-1)!!/n!!) R^(2n): n=2 gives pi/8
    g2 = BallGeometry(2, 1.0)
    assert cumulative_c(g2, 2.0, 0) == pytest.approx(math.pi / 8.0, rel=1e-12)


def test_cumulative_c_against_quadrature():
    g = BallGeometry(3, 1.0)
    for a, m in [(1.3, 0), (1.3, 1), (0.7, 2), (2.0, -1)]:
        want, _ = quad(lambda s: s ** (m + 2) * overlap_kernels(g, s)[0], 0.0, a,
                       epsabs=1e-13, limit=200)
        assert cumulative_c(g, a, m) == pytest.approx(want, rel=1e-10)


def test_cumulative_c_divergent():
    with pytest.raises(DivergentMomentError):
        cumulative_c(BallGeometry(2, 1.0), 1.0, -2)


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

def test_generating_f1_matches_kernels():
    g = BallGeometry(3, 1.0)
    coeffs = generating_series("F1", 8, 1.0, g)
    assert coeffs[3] == pytest.approx(5.0 / 24.0, abs=1e-13)
    for n in range(1, 9):
        q, _ = overlap_kernels(BallGeometry(n, 1.0), 1.0)
        assert coeffs[n] == pytest.approx(q, abs=1e-12)


def test_generating_f2_is_s_scaled_f1():
    g = BallGeometry(3, 2.0)
    s = 1.7
    f1 = generating_series("F1", 10, s, g)
    f2 = generating_series("F2", 10, s, g)
    for k in range(11):
        assert f2[k] == pytest.approx(s ** (k - 1) * f1[k], rel=1e-11, abs=1e-13)


def test_generating_f_complete_beta_at_x1():
    g = BallGeometry(1, 1.0)
    coeffs = generating_series("F", 9, 1.0, g)
    for n in range(1, 10):
        assert coeffs[n] == pytest.approx(beta((n + 1) / 2.0, 0.5), rel=1e-11)


def test_generating_high_order_refused():
    with pytest.raises(PrecisionError):
        generating_series("F1", 61, 1.0, BallGeometry(3, 1.0))
    with pytest.raises(DomainError):
        generating_series("F2", 5, 0.0, BallGeometry(3, 1.0))
    with pytest.raises(DomainError):
        generating_series("bogus", 5, 1.0, BallGeometry(3, 1.0))


def test_generating_order_60_stays_accurate():
    g = BallGeometry(1, 1.0)
    coeffs = generating_series("F1", 60, 1.0, g)
    for n in (40, 60):
        q, _ = overlap_kernels(BallGeometry(n, 1.0), 1.0)
        assert coeffs[n] == pytest.approx(q, abs=1e-13)
