"""CLI behavior: outputs, exit codes, manifests, determinism."""
import csv
import io
import json
import math
import os
import tracemalloc
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

@pytest.mark.parametrize("argv", [
    ("-n", "3", "-R", "8", "--density", "gauss:1"),
    ("-n", "3", "--density", "uniform"),
    ("-n", "3", "--density", "shells:0.5,1.0;1,2"),
])
def test_pdf_csv_matches_the_row_by_row_writer(tmp_path, argv):
    # a grid of 2 chunks + 3 rows holding s = 0; at R = 8 the Gaussian tail
    # runs down to about 1e-26, in exponent notation
    from nballdist import cli
    grid_len = 2 * cli._CSV_CHUNK + 3
    assert run(tmp_path, "pdf", *argv, "--grid", str(grid_len), "-o", "p.csv") == 0
    n, R = int(argv[1]), float(argv[3]) if argv[2] == "-R" else 1.0
    geometry = BallGeometry(n, R)
    grid = np.linspace(0.0, geometry.diameter, grid_len)
    values = resolve_evaluator(geometry, parse_density(argv[-1]))(grid)
    want = "s,analytic_density\n" + "".join(
        f"{float(s):.17g},{float(v):.17g}\n" for s, v in zip(grid, values))
    with open(tmp_path / "p.csv", newline="") as fh:
        assert fh.read() == want


@pytest.mark.parametrize("density", ["uniform", "shells:0.5,1.0;1,2"])
def test_compare_csv_matches_the_row_by_row_writer(tmp_path, density):
    # 2 chunks + 3 bins; the counts print as integers, as str(int(c)) does
    from nballdist import cli
    bins = 2 * cli._CSV_CHUNK + 3
    assert run(tmp_path, "compare", "-n", "3", "--density", density, "--pairs", "20000",
               "--bins", str(bins), "--seed", "5", "--threshold", "0", "-o", "c.csv") == 0
    geometry = BallGeometry(3, 1.0)
    hist = cli.empirical_pair_pdf_parallel(geometry, parse_density(density), 20000, bins, 5)
    edges, emp = hist.edges, hist.empirical_density
    analytic = resolve_evaluator(geometry, parse_density(density))(0.5 * (edges[:-1] + edges[1:]))
    want = "s_lo,s_hi,count,empirical_density,analytic_density\n" + "".join(
        f"{float(edges[i]):.17g},{float(edges[i + 1]):.17g},{int(hist.counts[i])},"
        f"{float(emp[i]):.17g},{float(analytic[i]):.17g}\n" for i in range(bins))
    with open(tmp_path / "c.csv", newline="") as fh:
        assert fh.read() == want


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


@pytest.mark.parametrize("n", ["1", "4"])
def test_pdf_shells_numeric_route_endpoints(tmp_path, n):
    assert run(tmp_path, "pdf", "-n", n, "--density", "shells:0.5,1.0;1,2",
               "--grid", "11", "-o", "sh.csv") == 0
    _, rows = read_csv(tmp_path / "sh.csv")
    assert [float(r[0]) for r in rows] == pytest.approx(np.linspace(0.0, 2.0, 11).tolist())
    assert float(rows[-1][1]) == 0.0
    if n == "4":
        assert float(rows[0][1]) == 0.0


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


def test_pdf_parabolic_very_large_dimension(tmp_path):
    # the slice factor (R^2 - x^2)^((n-1)/2) made this exit 3 ("radial PDF
    # leaves the double range") before it was taken relative to the widest slice
    assert run(tmp_path, "pdf", "-n", "3000", "--density", "parabolic:0.5",
               "--grid", "5", "-o", "p3000.csv") == 0
    _, rows = read_csv(tmp_path / "p3000.csv")
    values = [float(v) for _, v in rows]
    assert values[0] == values[-1] == 0.0
    assert all(v >= 0.0 and math.isfinite(v) for v in values) and values[3] > 1e-12


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


@pytest.mark.parametrize("argv", [
    ("-n", "3", "--density", "uniform"),
    ("-n", "1100", "--density", "uniform"),
    ("-n", "3", "-R", "3", "--density", "uniform"),
    ("-n", "4", "--density", "uniform", "--representation", "even_series"),
    ("-n", "3", "-R", "8", "--density", "gauss:1"),
    ("-n", "3", "--density", "shells:0.25,0.5,0.75,1;1,2,3,4"),
    ("-n", "5", "--density", "shells:0.5,1;1,2"),
    ("-n", "3", "--density", "parabolic:0.5"),
    ("-n", "3", "--density", "radial-poly:0,0,1"),
    ("-n", "2", "--density", "monomial:4,4"),
    ("-n", "3", "--density", "monomial:2,2,2"),
    ("-n", "4", "--density", "monomial:4,0,0,0"),
])
def test_pdf_blocks_match_one_whole_evaluation(tmp_path, argv):
    from nballdist import cli
    opts = dict(zip(argv[::2], argv[1::2]))
    geometry = BallGeometry(int(opts["-n"]), float(opts.get("-R", 1.0)))
    evaluator = resolve_evaluator(geometry, parse_density(opts["--density"]),
                                  opts.get("--representation"))
    for grid_len in (1, cli._PDF_BLOCK - 1, cli._PDF_BLOCK, cli._PDF_BLOCK + 1):
        assert run(tmp_path, "pdf", *argv, "--grid", str(grid_len), "-o", "p.csv") == 0
        grid = np.linspace(0.0, geometry.diameter, grid_len)
        want = io.StringIO()
        want.write("s,analytic_density\n")
        cli._write_rows(want, grid, evaluator(grid))
        with open(tmp_path / "p.csv", newline="") as fh:
            assert fh.read() == want.getvalue(), grid_len


def test_pdf_evaluates_block_by_block(tmp_path, monkeypatch):
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
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform",
               "--grid", str(2 * cli._PDF_BLOCK + 5), "-o", "u.csv") == 0
    assert calls == [(cli._PDF_BLOCK,), (cli._PDF_BLOCK,), (5,)]


def test_pdf_failing_part_way_leaves_no_partial_csv(tmp_path, monkeypatch):
    import nballdist.cli as cli
    resolve = cli.resolve_evaluator

    def failing_late(*args, **kwargs):
        evaluator = resolve(*args, **kwargs)

        def wrapped(s):
            if s[0] > 0.0:
                raise DomainError("fails on the second block")
            return evaluator(s)
        return wrapped
    (tmp_path / "u.csv").write_text("older\n")
    monkeypatch.setattr(cli, "resolve_evaluator", failing_late)
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform",
               "--grid", str(cli._PDF_BLOCK + 1), "-o", "u.csv") == 3
    assert sorted(os.listdir(tmp_path)) == ["u.csv"]
    assert (tmp_path / "u.csv").read_text() == "older\n"


def test_pdf_memory_is_the_grid_plus_one_block(tmp_path):
    # the whole-grid evaluation held about eight grid-sized arrays: 25 MiB
    # here, against 3.05 MiB of grid
    grid_len = 400_001
    assert run(tmp_path, "pdf", "-n", "50", "--density", "uniform", "--grid", "11",
               "-o", "warm.csv") == 0
    tracemalloc.start()
    try:
        assert run(tmp_path, "pdf", "-n", "50", "--density", "uniform",
                   "--grid", str(grid_len), "-o", "big.csv") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid_len + 2 * 2 ** 20


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


def test_moment_hardcore_pole_order(tmp_path, capsys):
    # (n+1+m)/2 = 0, a pole of the continued beta form, is an ordinary order
    assert run(tmp_path, "moment", "-n", "3", "-m", "-4", "--hardcore", "0.5") == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        1.90443133867930, rel=1e-12)


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


def test_compare_shells_other_dimension_skips_numeric_route(tmp_path, monkeypatch):
    # shells take the cap-volume sum in every n: no nested quadrature and no
    # interpolated comparison curve
    from nballdist import symmetric
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return 1.0
    monkeypatch.setattr(symmetric, "pdf_radial_numeric", counting)
    monkeypatch.setattr(symmetric, "_radial_unnormalized", counting)
    assert run(tmp_path, "compare", "-n", "4", "--density", "shells:0.5,1.0;1,2",
               "--pairs", "20000", "--bins", "64", "--seed", "42", "-o", "sh4") == 0
    assert calls == []


@pytest.mark.parametrize("n", ["2", "3", "4"])
def test_compare_shells_beyond_the_ball_exit_3(tmp_path, n):
    assert run(tmp_path, "compare", "-n", n, "--density", "shells:0.5,2.0;1,1",
               "--pairs", "2000", "--bins", "16", "--seed", "1", "-o", "out") == 3


def test_compare_many_bins(tmp_path):
    # dof 392: the chi-square tail no longer overflows through Gamma(dof/2)
    assert run(tmp_path, "compare", "-n", "3", "--density", "uniform", "--pairs", "1000000",
               "--bins", "400", "--seed", "1", "-o", "wide") == 0
    report = json.loads((tmp_path / "wide.report.json").read_text())
    assert report["dof"] > 343 and 0.001 <= report["p_value"] <= 1.0


def test_compare_repeated_runs_byte_identical(tmp_path):
    for tag in ("a", "b"):
        assert run(tmp_path, "compare", "-n", "3", "--density", "shells:0.5,1.0;1,2",
                   "--pairs", "30000", "--bins", "32", "--seed", "11", "-o", tag) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()


def test_pdf_numeric_radial_large_dimension(tmp_path):
    # n = 400 raised a raw OverflowError from |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2)
    assert run(tmp_path, "pdf", "-n", "400", "--density", "parabolic:0.5", "--grid", "3",
               "-o", "big.csv") == 0
    with open(tmp_path / "big.csv") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r["analytic_density"]) for r in rows]
    assert values[0] == 0.0 and values[2] == 0.0 and 0.0 < values[1] < 1e-20


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    target.mkdir()
    monkeypatch.setenv("NBALLDIST_OUT_DIR", str(target))
    assert run(tmp_path, "pdf", "-n", "3", "--density", "uniform", "--grid", "5",
               "-o", "env.csv") == 0
    assert (target / "env.csv").exists()
