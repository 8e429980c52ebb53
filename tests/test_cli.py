"""CLI behavior: outputs, exit codes, manifests, determinism."""
import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from nballdist import BallGeometry, pdf_uniform
from nballdist.cli import main, parse_density, resolve_evaluator
from nballdist.core import (
    CartesianMonomial,
    DomainError,
    Gaussian,
    MultiShell,
    ParabolicRadial,
    Uniform,
)


def run(tmp_path, *argv, capsys=None):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Density mini-language
# ---------------------------------------------------------------------------

def test_parse_density_variants():
    assert parse_density("uniform") == Uniform()
    assert parse_density("radial-poly:0,0,1").coefficients == (0.0, 0.0, 1.0)
    assert parse_density("parabolic:0.5") == ParabolicRadial(0.5)
    assert parse_density("gauss:2.0") == Gaussian(2.0)
    sh = parse_density("shells:0.5,1.0;1,2")
    assert isinstance(sh, MultiShell)
    assert sh.radii == (0.5, 1.0) and sh.densities == (1.0, 2.0)
    assert parse_density("monomial:4,4") == CartesianMonomial((4, 4))


def test_parse_density_errors_exit_2(tmp_path):
    assert run(tmp_path, "pdf", "-n", "3", "--density", "nonsense:1", "-o", "x.csv") == 2
    assert run(tmp_path, "pdf", "-n", "3", "--density", "shells:1.0;0,0", "-o", "x.csv") == 2


# ---------------------------------------------------------------------------
# pdf subcommand
# ---------------------------------------------------------------------------

def test_pdf_uniform_grid(tmp_path):
    assert run(tmp_path, "pdf", "-n", "3", "-R", "1", "--density", "uniform",
               "--grid", "201", "-o", "u.csv") == 0
    header, rows = read_csv(tmp_path / "u.csv")
    assert header == ["s", "analytic_density"]
    assert len(rows) == 201
    mid = rows[100]
    assert float(mid[0]) == pytest.approx(1.0)
    assert float(mid[1]) == pytest.approx(0.9375, abs=1e-12)
    manifest = json.loads((tmp_path / "u.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "pdf"
    assert manifest["parameters"]["grid"] == 201


def test_pdf_two_point_grid_endpoints_zero(tmp_path):
    assert run(tmp_path, "pdf", "-n", "2", "--density", "uniform", "--grid", "2",
               "-o", "two.csv") == 0
    _, rows = read_csv(tmp_path / "two.csv")
    assert [float(r[0]) for r in rows] == [0.0, 2.0]
    assert all(float(r[1]) == 0.0 for r in rows)


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_pdf_bad_grid_exit_2(tmp_path, grid):
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform", "--grid", grid,
               "-o", "bad.csv") == 2
    assert not (tmp_path / "bad.csv").exists()


def test_pdf_shells_continuous_and_emits_polynomial(tmp_path):
    assert run(tmp_path, "pdf", "-n", "3", "--density", "shells:0.5,1.0;1,2",
               "--grid", "401", "-o", "sh.csv") == 0
    _, rows = read_csv(tmp_path / "sh.csv")
    vals = np.array([[float(a), float(b)] for a, b in rows])
    jumps = np.abs(np.diff(vals[:, 1]))
    assert np.max(jumps) < 0.05  # continuous curve, no region-boundary jumps
    doc = json.loads((tmp_path / "sh.shells.json").read_text())
    assert set(doc) == {"breakpoints", "pieces"}
    manifest = json.loads((tmp_path / "sh.csv.manifest.json").read_text())
    assert "sh.shells.json" in manifest["outputs"]


def test_pdf_representation_flag(tmp_path):
    assert run(tmp_path, "pdf", "-n", "5", "--density", "uniform", "--grid", "11",
               "--representation", "odd_series", "-o", "odd.csv") == 0
    _, rows = read_csv(tmp_path / "odd.csv")
    g = BallGeometry(5, 1.0)
    for srow, drow in rows:
        assert float(drow) == pytest.approx(pdf_uniform(g, float(srow)), abs=1e-10)


def test_pdf_unsupported_combination_exit_3(tmp_path):
    assert run(tmp_path, "pdf", "-n", "5", "--density", "monomial:2,2,2,2,2",
               "-o", "x.csv") == 3


def test_pdf_parabolic_other_dimension_uses_numeric_route(tmp_path):
    # outside n = 3 the parabolic family falls back to the radial integrator
    assert run(tmp_path, "pdf", "-n", "2", "--density", "parabolic:1.0",
               "--grid", "5", "-o", "p2.csv") == 0
    _, rows = read_csv(tmp_path / "p2.csv")
    from nballdist import pdf_radial_numeric
    g2 = BallGeometry(2, 1.0)
    want = pdf_radial_numeric(g2, ParabolicRadial(1.0), 1.0)
    assert float(rows[2][1]) == pytest.approx(want, abs=1e-6)


def test_resolve_evaluator_routes():
    g2 = BallGeometry(2, 1.0)
    ev = resolve_evaluator(g2, CartesianMonomial((4, 4)))
    assert ev(1.0) == pytest.approx(0.4002517965573418, rel=1e-12)
    g3 = BallGeometry(3, 1.0)
    ev3 = resolve_evaluator(g3, parse_density("radial-poly:0,0,1"))
    assert ev3(1.0) == pytest.approx(345.0 / 448.0, rel=1e-12)


# every route of resolve_evaluator: (n, density spec, representation)
EVALUATOR_ROUTES = [
    (1, "uniform", None), (2, "uniform", None), (3, "uniform", None), (50, "uniform", None),
    (1, "gauss:0.7", None), (3, "gauss:0.7", None),
    (3, "radial-poly:0,0,1", None), (3, "parabolic:0.5", None), (3, "shells:0.5,1.0;1,2", None),
    (2, "monomial:4,4", None), (3, "monomial:2,2,2", None), (4, "monomial:4,0,0,0", None),
    (4, "parabolic:0.5", None), (2, "monomial:2,2", None), (3, "uniform", "hypergeometric"),
]


@pytest.mark.parametrize("n,spec,rep", EVALUATOR_ROUTES)
def test_evaluator_array_contract(n, spec, rep):
    geometry = BallGeometry(n, 1.0)
    density = parse_density(spec)
    ev = resolve_evaluator(geometry, density, rep)
    # the routes that work point by point (numeric radial, n = 2 master
    # quadrature, forced representation) get a short grid
    pointwise = rep is not None or (n, spec) in {(4, "parabolic:0.5"), (2, "monomial:2,2")}
    grid = np.linspace(0.0, geometry.diameter, 9 if pointwise else 101)
    values = ev(grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    one_by_one = np.array([ev(float(s)) for s in grid])
    assert all(isinstance(ev(float(s)), float) for s in grid[:2])
    np.testing.assert_allclose(values, one_by_one, rtol=1e-14, atol=0.0)
    square = grid[1:].reshape(2, -1)
    np.testing.assert_array_equal(ev(square), ev(square.ravel()).reshape(square.shape))
    bad = [-0.1] if isinstance(density, Gaussian) else [-0.1, geometry.diameter + 0.1]
    for s_bad in bad:
        with pytest.raises(DomainError):
            ev(np.array([0.5, s_bad, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = ev(np.array([0.0, geometry.diameter]))
    assert np.all(np.isfinite(ends))


def test_pdf_and_compare_evaluate_in_one_call_each(tmp_path, monkeypatch):
    import nballdist.cli as cli
    calls = []
    resolve = cli.resolve_evaluator

    def counting(*args, **kwargs):
        evaluator = resolve(*args, **kwargs)

        def wrapped(s):
            calls.append(np.shape(s))
            return evaluator(s)
        return wrapped
    monkeypatch.setattr(cli, "resolve_evaluator", counting)
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform", "--grid", "301",
               "-o", "u.csv") == 0
    assert calls == [(301,)]
    calls.clear()
    assert run(tmp_path, "compare", "-n", "3", "--density", "uniform", "--pairs", "20000",
               "--bins", "32", "--seed", "42", "-o", "c") == 0
    # bin-mass nodes (bins x 20 Gauss-Legendre points), then the CSV midpoints
    assert calls == [(32, 20), (32,)]


# ---------------------------------------------------------------------------
# moment / energy subcommands
# ---------------------------------------------------------------------------

def test_moment_uniform_stdout(tmp_path, capsys):
    assert run(tmp_path, "moment", "-n", "3", "-m", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(36.0 / 35.0, abs=1e-12)
    assert doc["family"] == "uniform"


def test_moment_gaussian_stdout(tmp_path, capsys):
    assert run(tmp_path, "moment", "-n", "3", "-m", "2", "--kind", "gaussian",
               "--sigma", "1.0") == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(6.0)


def test_moment_divergent_exit_3(tmp_path):
    assert run(tmp_path, "moment", "-n", "3", "-m", "-3") == 3


def test_moment_hardcore(tmp_path, capsys):
    assert run(tmp_path, "moment", "-n", "3", "-m", "-5", "--hardcore", "0.01") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == "uniform-hardcore"
    assert doc["value"] == pytest.approx(14776.137818022506, rel=1e-10)


def test_moment_hardcore_overflow_exit_3(tmp_path, capsys):
    # the true value is about 2^3001, beyond double precision
    assert run(tmp_path, "moment", "-n", "3", "-m", "-3001", "--hardcore", "0.5") == 3
    assert "m = -3001" in capsys.readouterr().err


def test_energy_kinds(tmp_path, capsys):
    assert run(tmp_path, "energy", "--kind", "coulomb", "-n", "3", "-Z", "10") == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(54.0)
    assert run(tmp_path, "energy", "--kind", "nunubar", "-N", "2", "-R", "1",
               "--hardcore", "0.01") == 0
    w = json.loads(capsys.readouterr().out)["value"]
    assert 0.98 <= w / (6.0 / (16.0 * math.pi ** 3 * 1e-4)) <= 1.0
    assert run(tmp_path, "energy", "--kind", "nunubar-gauss", "-N", "2",
               "--sigma", "1", "--hardcore", "4.0") == 0
    small = json.loads(capsys.readouterr().out)["value"]
    assert 0 < small < 1e-4
    assert run(tmp_path, "energy", "--kind", "coulomb-gauss", "-n", "3", "-Z", "2",
               "--sigma", "1") == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        1.0 / math.sqrt(math.pi))


def test_energy_domain_error_exit_3(tmp_path):
    assert run(tmp_path, "energy", "--kind", "nunubar", "-N", "2", "--hardcore", "5.0") == 3


# ---------------------------------------------------------------------------
# compare subcommand
# ---------------------------------------------------------------------------

def test_compare_pass_and_outputs(tmp_path):
    code = run(tmp_path, "compare", "-n", "3", "--density", "uniform",
               "--pairs", "60000", "--bins", "48", "--seed", "42", "-o", "cmp")
    assert code == 0
    header, rows = read_csv(tmp_path / "cmp.csv")
    assert header == ["s_lo", "s_hi", "count", "empirical_density", "analytic_density"]
    assert len(rows) == 48
    assert sum(int(r[2]) for r in rows) == 60000
    report = json.loads((tmp_path / "cmp.report.json").read_text())
    assert report["p_value"] > 1e-3
    assert report["dof"] == report["bins_used"] - 1


def test_compare_r2_closed_form_route(tmp_path):
    code = run(tmp_path, "compare", "-n", "3", "--density", "radial-poly:0,0,1",
               "--pairs", "60000", "--bins", "48", "--seed", "42", "-o", "r2")
    assert code == 0
    report = json.loads((tmp_path / "r2.report.json").read_text())
    assert report["p_value"] > 1e-3


def test_compare_threshold_failure_exit_4(tmp_path):
    # an unreachable threshold exercises the statistical-failure exit code
    code = run(tmp_path, "compare", "-n", "3", "--density", "uniform",
               "--pairs", "20000", "--bins", "32", "--seed", "42",
               "--threshold", "1.0", "-o", "thr")
    assert code == 4
    assert (tmp_path / "thr.report.json").exists()  # outputs written regardless


def test_compare_deterministic_across_threads(tmp_path):
    for threads in ("1", "4"):
        code = run(tmp_path, "compare", "-n", "2", "--density", "uniform",
                   "--pairs", "40000", "--bins", "32", "--seed", "7",
                   "--threads", threads, "-o", f"t{threads}")
        assert code == 0
    csv1 = (tmp_path / "t1.csv").read_bytes()
    csv4 = (tmp_path / "t4.csv").read_bytes()
    assert csv1 == csv4
    rep1 = (tmp_path / "t1.report.json").read_bytes()
    rep4 = (tmp_path / "t4.report.json").read_bytes()
    assert rep1 == rep4


def test_compare_monomial_deterministic_across_threads(tmp_path):
    for threads in ("1", "2"):
        assert run(tmp_path, "compare", "-n", "2", "--density", "monomial:4,4",
                   "--pairs", "40000", "--bins", "32", "--seed", "7",
                   "--threads", threads, "-o", f"m{threads}") == 0
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
    assert (tmp_path / "m1.report.json").read_bytes() == \
        (tmp_path / "m2.report.json").read_bytes()


def test_compare_shells_other_dimension_uses_curve(tmp_path, monkeypatch):
    # the numeric radial route is evaluated on the 513-point comparison curve
    # and the 64 CSV midpoints only, not at every bin-mass quadrature node
    from nballdist import symmetric
    calls = []

    def counting(geometry, density, s):
        calls.append(s)
        return 1.0
    monkeypatch.setattr(symmetric, "pdf_radial_numeric", counting)
    run(tmp_path, "compare", "-n", "4", "--density", "shells:0.5,1.0;1,2",
        "--pairs", "20000", "--bins", "64", "--seed", "42", "-o", "sh4")
    assert 0 < len(calls) <= 513 + 64


def test_compare_repeated_runs_byte_identical(tmp_path):
    for tag in ("a", "b"):
        assert run(tmp_path, "compare", "-n", "3", "--density", "shells:0.5,1.0;1,2",
                   "--pairs", "30000", "--bins", "32", "--seed", "11", "-o", tag) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    target.mkdir()
    monkeypatch.setenv("NBALLDIST_OUT_DIR", str(target))
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform", "--grid", "5",
               "-o", "env.csv") == 0
    assert (target / "env.csv").exists()
