"""Special-function kernel vs high-precision oracles (mpmath)."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nballdist.core import (
    DomainError,
    PrecisionError,
    beta,
    double_factorial,
    hyp2f1_halfint,
    inc_beta,
    inc_gamma_upper,
    log_gamma,
    reg_inc_beta,
)

mp.mp.dps = 40


def test_log_gamma_values():
    assert log_gamma(1.0) == 0.0
    assert math.isclose(log_gamma(0.5), math.log(math.sqrt(math.pi)), rel_tol=1e-15)
    assert math.isclose(log_gamma(11.0), math.log(math.factorial(10)), rel_tol=1e-14)


def test_log_gamma_accuracy_probe():
    for x in [1e-3, 0.02, 0.37, 0.5, 3.0, 11.0, 47.5, 120.25, 1.5e3, 9.9e5]:
        want = float(mp.loggamma(mp.mpf(x)))
        assert abs(log_gamma(x) - want) <= 1e-13 * max(abs(want), 1.0)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta(2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)
    # ratio identity B(a, 3/2)/B(a, 1/2) = 1/(2a+1) at a = 2
    assert beta(2.0, 1.5) / beta(2.0, 0.5) == pytest.approx(0.2, rel=1e-13)


def test_beta_large_arguments_no_overflow():
    v = beta(25.5, 0.5)  # the (n+1)/2 family at n = 50
    want = float(mp.beta(mp.mpf("25.5"), mp.mpf("0.5")))
    assert v == pytest.approx(want, rel=1e-13)


def test_inc_beta_values():
    assert inc_beta(0.0, 2.0, 3.0) == 0.0
    assert inc_beta(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert inc_beta(0.75, 2.0, 1.0) == pytest.approx(0.28125, rel=1e-13)


def test_inc_beta_against_mpmath():
    for x in [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-7]:
        for p, q in [(0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (3.5, 0.5),
                     (25.5, 0.5), (0.5, 3.5), (7.0, 9.0)]:
            want = float(mp.betainc(p, q, 0, x))
            assert inc_beta(x, p, q) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_inc_beta_domain():
    with pytest.raises(DomainError):
        inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        inc_beta(0.5, -1.0, 1.0)


def test_reg_inc_beta_values():
    assert reg_inc_beta(1.0, 3.0, 4.0) == pytest.approx(1.0, rel=1e-14)
    assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, rel=1e-13)
    assert reg_inc_beta(0.36, 1.0, 1.0) == pytest.approx(0.36, rel=1e-14)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(x=st.floats(0.0, 1.0), p=st.floats(0.1, 20.0), q=st.floats(0.1, 20.0))
def test_inc_beta_tail_identity(x, p, q):
    # B_x(p, q) = B(p, q) - B_{1-x}(q, p), on a pair x, 1 - x that are both
    # exact (Sterbenz); otherwise 1 - x rounds to 1 for tiny x and the right
    # side is 0 while B_x is not
    x = 1.0 - (1.0 - x)
    lhs = inc_beta(x, p, q)
    rhs = beta(p, q) - inc_beta(1.0 - x, q, p)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, beta(p, q))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=st.floats(0.2, 15.0), q=st.floats(0.2, 15.0),
       x1=st.floats(0.0, 1.0), x2=st.floats(0.0, 1.0))
def test_reg_inc_beta_monotone(p, q, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert reg_inc_beta(lo, p, q) <= reg_inc_beta(hi, p, q) + 1e-14


def test_special_functions_are_pure():
    args = (0.731, 12.5, 0.5)
    assert inc_beta(*args) == inc_beta(*args)
    assert inc_gamma_upper(2.5, 7.0) == inc_gamma_upper(2.5, 7.0)
    assert hyp2f1_halfint(6, 0.9) == hyp2f1_halfint(6, 0.9)


# ---------------------------------------------------------------------------
# 2F1 family
# ---------------------------------------------------------------------------

def test_hyp2f1_terminating_odd():
    # n = 3: 1 - x/3 exactly
    for x in [0.0, 0.2, 0.6, 1.0]:
        assert hyp2f1_halfint(3, x) == pytest.approx(1.0 - x / 3.0, rel=1e-15)
    assert hyp2f1_halfint(1, 0.77) == 1.0  # series ends at the first term
    assert hyp2f1_halfint(5, 0.0) == 1.0


def test_hyp2f1_even_against_mpmath():
    for n in [2, 4, 6, 8, 12]:
        for x in [0.1, 0.5, 0.74, 0.76, 0.9, 0.99, 1.0]:
            want = float(mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1 - n) / 2, mp.mpf(3) / 2, x))
            assert hyp2f1_halfint(n, x) == pytest.approx(want, rel=1e-12)


def test_hyp2f1_antiderivative_identity():
    # d/dx [R^(n-1) x 2F1(1/2, (1-n)/2; 3/2; x^2/R^2)] = (R^2 - x^2)^((n-1)/2)
    R = 1.0
    for n in (3, 5, 7):
        f = lambda t: R ** (n - 1) * t * hyp2f1_halfint(n, (t / R) ** 2)
        for x in np.linspace(0.01, 0.99, 25):
            h = 1e-6
            deriv = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(deriv - (R * R - x * x) ** ((n - 1) / 2.0)) < 1e-9


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        hyp2f1_halfint(3, 1.5)
    with pytest.raises(DomainError):
        hyp2f1_halfint(0, 0.5)


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

def test_inc_gamma_values():
    assert inc_gamma_upper(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert inc_gamma_upper(1.0, 1e-12) == pytest.approx(1.0, rel=1e-10)
    # E_1(1), independently computed by adaptive quadrature elsewhere
    assert inc_gamma_upper(0.0, 1.0) == pytest.approx(0.21938393439552027, rel=1e-12)


def test_inc_gamma_against_mpmath():
    for a in [0.0, 0.5, 1.0, 2.5, 7.0]:
        for b in [1e-4, 0.1, 0.9, 1.5, 4.0, 25.0]:
            want = float(mp.gammainc(mp.mpf(a), mp.mpf(b)))
            assert inc_gamma_upper(a, b) == pytest.approx(want, rel=1e-10)


def test_inc_gamma_large_order():
    # Gamma(a) alone overflows for a > 171; the product is formed in log space
    for a, b in [(171.5, 400.0), (172.0, 400.0), (200.0, 600.0)]:
        want = float(mp.gammainc(mp.mpf(a), mp.mpf(b)))
        assert inc_gamma_upper(a, b) == pytest.approx(want, rel=1e-12)
    # 1e612 lies above the double range
    with pytest.raises(PrecisionError):
        inc_gamma_upper(300.0, 1.0)


@pytest.mark.parametrize("a,b,want", [
    (200.0, 2000.0, 2.2987672564663628e-212),
    (50.0, 1000.0, 5.3372076819417196e-288),
])
def test_inc_gamma_where_q_underflows(a, b, want):
    # Q(a, b) underflows to 0; the continued fraction gives Gamma(a, b) itself
    assert inc_gamma_upper(a, b) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(float(mp.gammainc(mp.mpf(a), mp.mpf(b))), rel=1e-15)


def test_inc_gamma_continued_fraction_against_mpmath():
    from nballdist.core import _inc_gamma_upper_cf
    for a in [0.5, 3.0, 40.5, 171.5, 350.0]:
        for ratio in [1.5, 3.0, 10.0]:
            b = a * ratio + 2.0
            want = float(mp.gammainc(mp.mpf(a), mp.mpf(b)))
            assert _inc_gamma_upper_cf(a, b) == pytest.approx(want, rel=1e-14), (a, b)


def test_inc_gamma_below_the_double_range_still_raises():
    # the true value is 6.9e-328, below the smallest subnormal
    with pytest.raises(PrecisionError):
        inc_gamma_upper(0.5, 750.0)


def test_inc_gamma_domain():
    with pytest.raises(DomainError):
        inc_gamma_upper(1.0, 0.0)
    with pytest.raises(DomainError):
        inc_gamma_upper(1.0, -3.0)


# ---------------------------------------------------------------------------
# Double factorial
# ---------------------------------------------------------------------------

def test_double_factorial_conventions():
    assert double_factorial(-1) == 1.0
    assert double_factorial(0) == 1.0
    assert double_factorial(1) == 1.0
    assert double_factorial(6) == 48.0
    assert double_factorial(7) == 105.0
