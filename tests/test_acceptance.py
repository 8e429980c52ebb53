"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each criterion is a single test; tolerances are pinned in the
assertions, not configurable.
"""
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

import nballdist
import reference_forms as ref
from nballdist import (
    BallGeometry,
    CartesianMonomial,
    Gaussian,
    GaussianBall,
    MultiShell,
    RadialPolynomial,
    Representation,
    SamplerConfig,
    Uniform,
    compare,
    coulomb_self_energy,
    dot_constant,
    cumulative_c,
    empirical_pair_pdf,
    endpoint_properties,
    equal_thickness_shells,
    gaussian_mode,
    moment_hardcore,
    moment_uniform,
    multishell_polynomial,
    neutrino_self_energy_gaussian,
    neutrino_self_energy_uniform,
    pdf_example_2d,
    pdf_example_3d,
    pdf_example_4d,
    pdf_gaussian,
    pdf_master,
    pdf_multishell,
    pdf_radial_numeric,
    pdf_radial_parabolic,
    pdf_radial_r2,
    pdf_uniform,
    pdf_uniform_repr,
    recursion_residuals,
    rotation_matrix,
    sample_uniform_ball,
    spherical_to_cartesian,
)
from nballdist.applications import SelfEnergySpec, moment_uniform_gamma_forms
from nballdist.arbitrary import AngleSet
from nballdist.uniform import odd_series_coefficients


@contextmanager
def criterion(num: int, text: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {text}  [{time.monotonic() - start:.1f}s]")


def test_c01_uniform_closed_forms():
    with criterion(1, "P3/P5 rational coefficients exact; P2/P4 pointwise 1e-10"):
        assert odd_series_coefficients(3) == {2: F(3), 3: F(-9, 4), 5: F(3, 16)}
        assert odd_series_coefficients(5) == {4: F(5), 5: F(-75, 16),
                                              7: F(25, 32), 9: F(-15, 256)}
        g2, g4 = BallGeometry(2, 1.0), BallGeometry(4, 1.0)
        for s in np.linspace(0.0, 2.0, 101):
            s = float(s)
            assert abs(pdf_uniform(g2, s) - ref.p2_closed(s)) < 1e-10
            assert abs(pdf_uniform(g4, s) - ref.p4_closed(s)) < 1e-10


def test_c02_representation_cross_agreement():
    with criterion(2, "all representations within 1e-8 of the default, n=1..8, R in {0.5,1,3}"):
        for n in range(1, 9):
            reps = [r for r in Representation
                    if not (r is Representation.ODD_SERIES and n % 2 == 0)
                    and not (r is Representation.EVEN_SERIES and n % 2 == 1)]
            for R in (0.5, 1.0, 3.0):
                g = BallGeometry(n, R)
                for s in np.linspace(0.0, 2.0 * R, 43)[1:-1]:
                    base = pdf_uniform(g, float(s))
                    for rep in reps:
                        assert abs(pdf_uniform_repr(g, float(s), rep) - base) < 1e-8


def test_c03_normalization_and_endpoints():
    with criterion(3, "unit normalization 1e-9 for n=1..10; printed endpoint values exact"):
        for n in range(1, 11):
            g = BallGeometry(n, 1.0)
            total, _ = quad(lambda s: pdf_uniform(g, s), 0.0, 2.0, epsabs=1e-12, limit=300)
            assert abs(total - 1.0) < 1e-9
        for R in (1.0, 2.0):
            t1 = endpoint_properties(BallGeometry(1, R))
            assert t1["P(0)"] == 1.0 / R and t1["P(2R)"] == 0.0
            assert t1["P'(0)"] == -0.5 / R ** 2 and t1["P'(2R)"] == -0.5 / R ** 2
            t2 = endpoint_properties(BallGeometry(2, R))
            assert t2["P(0)"] == 0.0 and t2["P'(0)"] == 2.0 / R ** 2 and t2["P'(2R)"] == 0.0
            for n in (3, 7):
                tn = endpoint_properties(BallGeometry(n, R))
                assert tn == {"P(0)": 0.0, "P(2R)": 0.0, "P'(0)": 0.0, "P'(2R)": 0.0}


def test_c04_recursion_residuals():
    with criterion(4, "derivative/ODE/ladder residuals < 1e-9 on n=2..7 x 21 points"):
        for n in range(2, 8):
            g = BallGeometry(n, 1.0)
            for s in np.linspace(0.05, 1.95, 21):
                for name, val in recursion_residuals(g, float(s)).items():
                    assert abs(val) < 1e-9, (n, s, name, val)


def test_c05_radial_closed_forms():
    with criterion(5, "radial closed forms vs numeric 1e-6; Gaussian unit mass and mode"):
        g3 = BallGeometry(3, 1.0)
        for s in np.linspace(0.05, 1.95, 21):
            s = float(s)
            assert abs(pdf_radial_numeric(g3, RadialPolynomial((0, 0, 1)), s, tol=1e-7)
                       - pdf_radial_r2(g3, s)) < 1e-6
            assert abs(pdf_radial_numeric(g3, RadialPolynomial((1, 0, -1)), s, tol=1e-7)
                       - pdf_radial_parabolic(g3, 1.0, s)) < 1e-6
        for n, sigma in ((2, 1.0), (3, 1.0), (3, 0.5)):
            gb = GaussianBall(n, sigma)
            total, _ = quad(lambda s: pdf_gaussian(gb, s), 0.0, np.inf, limit=300)
            assert abs(total - 1.0) < 1e-10
            grid = np.linspace(1e-9, 8.0 * sigma, 16001)
            vals = np.array([pdf_gaussian(gb, float(s)) for s in grid])
            assert abs(grid[int(np.argmax(vals))] - gaussian_mode(gb)) < 2e-3 * sigma


def test_c06_shell_tables():
    with criterion(6, "2/3/4-shell region tables exact (two misprints corrected); continuity exact"):
        g3 = BallGeometry(3, 1.0)
        probes = {
            2: [(1, 2), (F(3, 7), F(5, 2)), (1, 1)],
            3: [(1, 2, 3), (F(3, 7), F(5, 2), F(1, 3)), (2, 2, 2)],
            4: [(1, 2, 3, 4), (F(3, 7), F(5, 2), F(1, 3), 4), (1, 1, 1, 1)],
        }
        tables = {2: ref.shell2_regions, 3: ref.shell3_regions, 4: ref.shell4_regions}
        for k, dens_list in probes.items():
            for dens in dens_list:
                poly = multishell_polynomial(g3, equal_thickness_shells(dens, 1))
                want = tables[k](*dens)
                assert len(poly.pieces) == len(want) == 2 * k
                for piece, w in zip(poly.pieces, want):
                    assert ref.coeff_dict(piece) == ref.nonzero(w)
                assert poly.integral() == 1
                assert all(j == 0 for j in poly.continuity_jumps())
        # the two misprinted s^5 coefficients genuinely disagree with the assembly
        dens = (1, 2, 3, 4)
        poly = multishell_polynomial(g3, equal_thickness_shells(dens, 1))
        bad = ref.shell4_regions(*dens, corrected=False)
        assert ref.coeff_dict(poly.pieces[2])[5] != bad[2][5]
        assert ref.coeff_dict(poly.pieces[6])[5] != bad[6][5]
        print("\n  note: 4-shell region-3 s^5 term reads 2r1r2 (not 2r1r3) and "
              "region-7 s^5 term reads 2r3 (not 2r2); the misprinted variants "
              "break continuity at the adjacent boundaries")
        # equal densities reduce exactly to the uniform ball
        for k in (2, 3, 4):
            poly = multishell_polynomial(g3, equal_thickness_shells([F(5, 2)] * k, 1))
            for piece in poly.pieces:
                assert ref.coeff_dict(piece) == {2: F(3), 3: F(-9, 4), 5: F(3, 16)}


def test_c07_master_formula():
    with criterion(7, "master formula vs printed forms (quadrature 1e-6 / MC 3 sigma); rotations 1e-12"):
        rng = np.random.default_rng(2024)
        count = 0
        for n in range(2, 9):
            for _ in range(143):
                ang = AngleSet(tuple(rng.uniform(0, math.pi, n - 2)),
                               float(rng.uniform(0, 2 * math.pi)))
                m = rotation_matrix(n, ang)
                assert np.max(np.abs(m @ m.T - np.eye(n))) < 1e-12
                assert abs(np.linalg.det(m) - 1.0) < 1e-10
                u = spherical_to_cartesian(n, 1.0, ang)
                row = m[0] if n == 2 else m[-1]
                assert np.max(np.abs(row - u)) < 1e-12
                assert abs(np.linalg.norm(m.T @ np.eye(n)[-1] * 1.7) - 1.7) < 1e-12
                count += 1
        assert count >= 1000

        g2 = BallGeometry(2, 1.0)
        for s in np.linspace(0.1, 1.9, 21):
            est = pdf_master(g2, CartesianMonomial((4, 4)), float(s), "quadrature", 1e-6)
            assert abs(est.value - pdf_example_2d(g2, float(s))) < 1e-6

        budget = 400_000  # 16-node normalization + 9-point grid = 1e7 samples
        for n, exps, closed in ((3, (2, 2, 2), pdf_example_3d),
                                (4, (4, 0, 0, 0), pdf_example_4d)):
            g = BallGeometry(n, 1.0)
            dens = CartesianMonomial(exps)
            for s in np.linspace(0.2, 1.8, 9):
                est = pdf_master(g, dens, float(s), "montecarlo", budget, seed=42)
                assert abs(est.value - closed(g, float(s))) <= 3.0 * est.error, (n, s)


def test_c08_figure_reproduction():
    with criterion(8, "chi-square p > 0.001 for all ten densities (1e6 pairs, 64 bins, seed 42)"):
        g2, g3, g4, g5 = (BallGeometry(n, 1.0) for n in (2, 3, 4, 5))
        g8 = BallGeometry(3, 8.0)
        gb = GaussianBall(3, 1.0)
        shells = MultiShell((0.5, 1.0), (1.0, 2.0))
        cases = [
            (g2, Uniform(), lambda s: pdf_uniform(g2, s)),
            (g3, Uniform(), lambda s: pdf_uniform(g3, s)),
            (g5, Uniform(), lambda s: pdf_uniform(g5, s)),
            (g3, RadialPolynomial((0, 0, 1)), lambda s: pdf_radial_r2(g3, s)),
            (g3, RadialPolynomial((1, 0, -1)), lambda s: pdf_radial_parabolic(g3, 1.0, s)),
            (g8, Gaussian(1.0), lambda s: pdf_gaussian(gb, s)),
            (g3, shells, lambda s: pdf_multishell(g3, shells, s)),
            (g2, CartesianMonomial((4, 4)), lambda s: pdf_example_2d(g2, s)),
            (g3, CartesianMonomial((2, 2, 2)), lambda s: pdf_example_3d(g3, s)),
            (g4, CartesianMonomial((4, 0, 0, 0)), lambda s: pdf_example_4d(g4, s)),
        ]
        for geometry, density, analytic in cases:
            hist = empirical_pair_pdf(geometry, density, pairs=1_000_000, bins=64,
                                      config=SamplerConfig(seed=42, count=0))
            report = compare(hist, analytic)
            assert report.p_value > 0.001, (type(density).__name__, report)


def test_c09_moments():
    with criterion(9, "printed moments 1e-12; form agreement 1e-8; hard core vs quadrature 1e-8"):
        g3 = BallGeometry(3, 1.0)
        printed = {-2: 2.25, -1: 1.2, 1: 36.0 / 35.0, 2: 1.2,
                   3: 32.0 / 21.0, 4: 72.0 / 35.0, 5: 32.0 / 11.0}
        for m, want in printed.items():
            assert abs(moment_uniform(g3, m) - want) < 1e-12
        for n in range(1, 7):
            g = BallGeometry(n, 1.0)
            for m in range(-(n - 1), 7):
                v = moment_uniform(g, m)
                f1, f2 = moment_uniform_gamma_forms(g, m)
                assert abs(f1 - v) < 1e-10 * max(1.0, abs(v))
                assert abs(f2 - v) < 1e-10 * max(1.0, abs(v))
                assert abs(cumulative_c(g, 2.0, m) / cumulative_c(g, 2.0, 0) - v) \
                    < 1e-10 * max(1.0, abs(v))
                numeric, _ = quad(lambda s: s ** m * pdf_uniform(g, s), 0.0, 2.0,
                                  epsabs=1e-12, limit=400)
                assert abs(v - numeric) < 1e-8 * max(1.0, abs(v))
        for m, rc in [(-5, 0.01), (-5, 0.3), (-2, 0.1), (1, 0.5), (3, 0.7)]:
            num, _ = quad(lambda s: s ** m * pdf_uniform(g3, s), rc, 2.0,
                          epsabs=1e-13, limit=400)
            den, _ = quad(lambda s: pdf_uniform(g3, s), rc, 2.0, epsabs=1e-13, limit=400)
            assert abs(moment_hardcore(g3, rc, m) - num / den) < 1e-8 * abs(num / den)


def test_c10_energies():
    with criterion(10, "Coulomb W3 exact; neutrino-exchange vs quadrature (1e-8 / 1e-6 rel)"):
        g3 = BallGeometry(3, 1.0)
        assert coulomb_self_energy(SelfEnergySpec(count=10, geometry=g3)) == 54.0
        assert coulomb_self_energy(SelfEnergySpec(count=2, geometry=g3)) \
            == pytest.approx(1.2, rel=1e-14)
        for rc in (0.01, 0.15):
            want = quad(lambda s: s ** -5 * pdf_uniform(g3, s), rc, 2.0,
                        epsabs=1e-13, limit=400)[0] / (4.0 * math.pi ** 3)
            got = neutrino_self_energy_uniform(1.0, rc, 2)
            assert abs(got - want) < 1e-8 * want
        w = neutrino_self_energy_uniform(1.0, 0.01, 2)
        assert 0.98 <= w / (6.0 / (16.0 * math.pi ** 3 * 1e-4)) <= 1.0
        gb = GaussianBall(3, 1.0)
        for rc in (0.1, 0.5):
            integral, _ = quad(lambda s: s ** -5 * pdf_gaussian(gb, s), rc, np.inf, limit=400)
            want = integral / (4.0 * math.pi ** 3)
            assert abs(neutrino_self_energy_gaussian(1.0, rc, 2) - want) < 1e-6 * want


def test_c11_geometric_constants():
    with criterion(11, "dot-product constants exact for n=1..5; MC triples within 3 sigma"):
        printed = {1: -1.0 / 3.0, 2: -0.5, 3: -0.6, 4: -2.0 / 3.0, 5: -5.0 / 7.0}
        for n, want in printed.items():
            assert dot_constant(n, 1.0, "uniform") == pytest.approx(want, abs=1e-15)
        pts = sample_uniform_ball(BallGeometry(3, 1.0), SamplerConfig(seed=42, count=3_000_000))
        p1, p2, p3 = pts[:1_000_000], pts[1_000_000:2_000_000], pts[2_000_000:]
        dots = np.sum((p2 - p1) * (p3 - p2), axis=1)
        stderr = float(np.std(dots)) / math.sqrt(len(dots))
        assert abs(float(np.mean(dots)) + 0.6) <= 3.0 * stderr


def test_c12_cli_determinism(tmp_path):
    with criterion(12, "CLI outputs byte-identical across repeats and thread counts"):
        # the subprocesses import the package from the tree under test
        src = os.path.dirname(os.path.dirname(nballdist.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, NBALLDIST_OUT_DIR=str(tmp_path), PYTHONPATH=path)
        def run(tag, threads):
            cmd = [sys.executable, "-m", "nballdist.cli", "compare", "-n", "3",
                   "--density", "shells:0.5,1.0;1,2", "--pairs", "100000",
                   "--bins", "64", "--seed", "42", "--threads", str(threads),
                   "-o", tag]
            assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
            return ((tmp_path / f"{tag}.csv").read_bytes(),
                    (tmp_path / f"{tag}.report.json").read_bytes())
        a = run("a", 1)
        b = run("b", 1)
        c = run("c", 4)
        assert a == b == c
        for tag in ("a", "b", "c"):
            manifest = json.loads((tmp_path / f"{tag}.csv.manifest.json").read_text())
            assert manifest["parameters"]["seed"] == 42
        # pdf runs too
        def run_pdf(tag):
            cmd = [sys.executable, "-m", "nballdist.cli", "pdf", "-n", "3",
                   "--density", "uniform", "--grid", "201", "-o", tag]
            assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
            return (tmp_path / tag).read_bytes()
        assert run_pdf("p1.csv") == run_pdf("p2.csv")
