"""Case lists and correctness gates of the benchmark workloads.

A case is one call into nballdist's public entry points: ``cli.main`` with a
``compare`` or ``pdf`` command line, or a package-level function. Cases run
one after another, and each one's output is checked afterwards against an
independent route at a stated tolerance (the gates), so checking is not
timed. The workload seed feeds ``compare --seed`` and the Monte Carlo
master formula, and picks the shell-grid points checked exactly.

Why these workloads:

* ``mc_direct``: Monte Carlo histograms of the densities with direct
  samplers, so the time goes to the RNG, pair distances, histogramming and
  the two-thread pool, with no quadrature; the 10^7-pair case makes each
  substream block (about 30 MB) far larger than the L2 cache.
* ``mc_rejection``: histograms of densities that need the rejection loop,
  single-threaded, so ``density_value`` and the loop dominate; the
  parabolic n=4 case adds 577 numeric radial evaluations, the first of
  which computes the normalization.
* ``pdf_curves``: analytic curves only, by the CLI and the library: warm
  per-point evaluation through the special-function kernel and
  ``PiecewisePolynomial``, and cold radial and master normalizations.

Within a workload no (geometry, density) pair repeats, except uniform n=3,
whose route has no cached state; the normalization caches therefore start
cold in every case, as in a CLI invocation.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate, special

from nballdist import applications, arbitrary, cli, symmetric
from nballdist.core import BallGeometry, CartesianMonomial, MultiShell

WORKLOADS = ("mc_direct", "mc_rejection", "pdf_curves")

P_THRESHOLD = 1e-3  # the chi-square gate of acceptance criterion 8
MC_SIGMAS = 3.0  # the master Monte Carlo gate of acceptance criterion 7
# A statistical gate misses by chance at the rates above. Only a miss that
# cannot be chance at any seed, p below P_WRONG or a deviation beyond
# WRONG_SIGMAS, marks the output as wrong (the run's "correct" flag).
P_WRONG = 1e-9
WRONG_SIGMAS = 6.0


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str
    wrong: bool | None = None  # None: same as not passed

    @property
    def output_wrong(self) -> bool:
        return (not self.passed) if self.wrong is None else self.wrong


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # result of run -> [Gate]
    kind: str  # "compare", "pdf" or "library"
    pairs: int = 0
    points: int = 0


def _sup_rel(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _tolerance_gate(name: str, err: float, tol: float) -> Gate:
    return Gate(name, bool(err <= tol), f"error {err:.3g} (gate {tol:g})")


def _read_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text)


# ---------------------------------------------------------------------------
# compare cases
# ---------------------------------------------------------------------------

def compare_case(out_dir: str, n: int, density: str, pairs: int, threads: int,
                 seed: int, radius: float = 1.0) -> Case:
    name = f"compare {density} n={n} R={radius:g} pairs={pairs}"
    csv_path = os.path.join(out_dir, _slug(name) + ".csv")
    argv = ["compare", "-n", str(n), "-R", repr(radius), "--density", density,
            "--pairs", str(pairs), "--bins", "64", "--seed", str(seed),
            "--threads", str(threads), "-o", csv_path]

    def check(code):
        if code not in (0, 4):
            return [Gate(name + ": exit and p-value", False, f"exit {code}")]
        with open(os.path.splitext(csv_path)[0] + ".report.json") as fh:
            p = json.load(fh)["p_value"]
        passed = code == 0 and p >= P_THRESHOLD
        return [Gate(name + ": exit and p-value", passed,
                     f"exit {code}, p = {p:.3g} (gate {P_THRESHOLD:g})", wrong=p < P_WRONG)]
    return Case(name, lambda: cli.main(argv), check, "compare", pairs=pairs)


# ---------------------------------------------------------------------------
# pdf cases and their independent references
# ---------------------------------------------------------------------------

def pdf_case(out_dir: str, n: int, density: str, grid: int, checks, radius: float = 1.0) -> Case:
    name = f"pdf {density} n={n} R={radius:g} grid={grid}"
    path = os.path.join(out_dir, _slug(name) + ".csv")
    argv = ["pdf", "-n", str(n), "-R", repr(radius), "--density", density,
            "--grid", str(grid), "-o", path]

    def check(code):
        if code != 0:
            return [Gate(name, False, f"exit {code}")]
        s, p = _read_csv(path)
        if len(s) != grid:
            return [Gate(name, False, f"{len(s)} rows, expected {grid}")]
        return [gate(name, s, p) for gate in checks]
    return Case(name, lambda: cli.main(argv), check, "pdf", points=grid)


def uniform_reference(n: int, radius: float):
    """n s^(n-1)/R^n I_{1-s^2/4R^2}((n+1)/2, 1/2), by scipy."""
    def gate(name, s, p):
        x = np.clip(1.0 - s * s / (4.0 * radius * radius), 0.0, 1.0)
        want = n * s ** (n - 1) / radius ** n * special.betainc((n + 1) / 2.0, 0.5, x)
        return _tolerance_gate(name + ": vs scipy betainc", _sup_rel(p, want), 1e-12)
    return gate


def gaussian_reference(n: int, sigma: float):
    """The chi distribution with n degrees of freedom, scaled by sqrt(2) sigma."""
    def gate(name, s, p):
        from scipy import stats
        want = stats.chi.pdf(s, n, scale=math.sqrt(2.0) * sigma)
        return _tolerance_gate(name + ": vs scipy chi", _sup_rel(p, want), 1e-12)
    return gate


def shells_exact(n: int, radius: float, shells: MultiShell, seed: int, points: int = 64):
    """Exact rational evaluation at ``points`` grid points drawn with the seed."""
    def gate(name, s, p):
        poly = symmetric.multishell_polynomial(BallGeometry(n, radius), shells)
        idx = np.random.default_rng(seed).choice(len(s), size=points, replace=False)
        want = np.array([float(poly.evaluate_exact(Fraction(float(s[i])))) for i in idx])
        err = float(np.max(np.abs(p[idx] - want)) / np.max(np.abs(p)))
        return _tolerance_gate(name + ": vs exact rational pieces", err, 1e-12)
    return gate


def unit_mass(tol: float):
    """Simpson's rule over the written grid integrates to one."""
    def gate(name, s, p):
        return _tolerance_gate(name + ": unit mass", abs(integrate.simpson(p, x=s) - 1.0), tol)
    return gate


# ---------------------------------------------------------------------------
# library cases
# ---------------------------------------------------------------------------

def radial_numeric_case() -> Case:
    geometry = BallGeometry(3, 1.0)
    shells = MultiShell((0.5, 1.0), (1.0, 2.0))
    s_values = np.linspace(0.1, 1.9, 11)
    name = "pdf_radial_numeric two-shell n=3, 11 points"

    def run():
        return [symmetric.pdf_radial_numeric(geometry, shells, float(s)) for s in s_values]

    def check(values):
        poly = symmetric.multishell_polynomial(geometry, shells)
        err = float(np.max(np.abs(np.array(values) - poly(s_values))))
        return [_tolerance_gate(name + ": vs multishell_polynomial", err, 1e-7)]
    return Case(name, run, check, "library", points=len(s_values))


def master_quadrature_case() -> Case:
    geometry = BallGeometry(3, 1.0)
    density = CartesianMonomial((2, 2, 2))
    s_values = np.linspace(0.2, 1.8, 5)
    name = "pdf_master quadrature (2,2,2)@3 tol 1e-6, 5 points"

    def run():
        return [arbitrary.pdf_master(geometry, density, float(s), "quadrature", 1e-6)
                for s in s_values]

    def check(estimates):
        want = [arbitrary.pdf_example_3d(geometry, float(s)) for s in s_values]
        err = max(abs(e.value - w) for e, w in zip(estimates, want))
        return [_tolerance_gate(name + ": vs pdf_example_3d", err, 1e-6)]
    return Case(name, run, check, "library", points=len(s_values))


def master_montecarlo_case(seed: int, budget: int) -> Case:
    geometry = BallGeometry(4, 1.0)
    density = CartesianMonomial((4, 0, 0, 0))
    s_values = np.linspace(0.2, 1.8, 5)
    name = f"pdf_master montecarlo (4,0,0,0)@4 budget {budget}, 5 points"

    def run():
        return [arbitrary.pdf_master(geometry, density, float(s), "montecarlo", budget, seed=seed)
                for s in s_values]

    def check(estimates):
        want = [arbitrary.pdf_example_4d(geometry, float(s)) for s in s_values]
        worst = max(abs(e.value - w) / e.error for e, w in zip(estimates, want))
        return [Gate(name + ": vs pdf_example_4d", worst <= MC_SIGMAS,
                     f"worst deviation {worst:.3g} error bars (gate {MC_SIGMAS:g})",
                     wrong=worst > WRONG_SIGMAS)]
    return Case(name, run, check, "library", points=len(s_values))


MOMENT_DIMENSIONS = range(1, 9)
HARD_CORE = 0.25


def _orders(n: int):
    return range(-(n - 1), 7)


def moments_case() -> Case:
    name = "moments uniform/hardcore/gaussian, n = 1..8"

    def run():
        out = []
        for n in MOMENT_DIMENSIONS:
            g = BallGeometry(n, 1.0)
            for m in _orders(n):
                out.append(("uniform", n, m, applications.moment_uniform(g, m)))
                out.append(("hardcore", n, m, applications.moment_hardcore(g, HARD_CORE, m)))
                out.append(("gaussian", n, m, applications.moment_gaussian(n, 1.0, m)))
        return out

    def check(values):
        worst = {"uniform": 0.0, "hardcore": 0.0, "gaussian": 0.0}
        for family, n, m, value in values:
            g = BallGeometry(n, 1.0)
            if family == "uniform":
                refs = applications.moment_uniform_gamma_forms(g, m)
            elif family == "hardcore":
                refs = (_hardcore_quadrature(n, m),)
            else:
                refs = (_gaussian_quadrature(n, m),)
            for ref in refs:
                worst[family] = max(worst[family], abs(value - ref) / max(1.0, abs(ref)))
        return [
            _tolerance_gate(name + ": uniform vs gamma forms", worst["uniform"], 1e-10),
            _tolerance_gate(name + ": hard core vs quadrature", worst["hardcore"], 1e-8),
            _tolerance_gate(name + ": gaussian vs quadrature", worst["gaussian"], 1e-8),
        ]
    return Case(name, run, check, "library")


def _uniform_pdf(n: int, s):
    return n * s ** (n - 1) * special.betainc((n + 1) / 2.0, 0.5, max(1.0 - s * s / 4.0, 0.0))


def _hardcore_quadrature(n: int, m: int) -> float:
    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    num, _ = integrate.quad(lambda s: s ** m * _uniform_pdf(n, s), HARD_CORE, 2.0, **kw)
    den, _ = integrate.quad(lambda s: _uniform_pdf(n, s), HARD_CORE, 2.0, **kw)
    return num / den


def _gaussian_quadrature(n: int, m: int) -> float:
    # s = sqrt(2) x with x chi-distributed, n degrees of freedom (sigma = 1)
    log_norm = (n / 2.0 - 1.0) * math.log(2.0) + math.lgamma(n / 2.0) + 0.5 * math.log(2.0)

    def integrand(s):
        x = s / math.sqrt(2.0)
        return s ** m * math.exp((n - 1) * math.log(x) - 0.5 * x * x - log_norm) if s > 0 else 0.0
    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_cases(workload: str, seed: int, out_dir: str) -> list:
    """The case list of ``workload``."""
    if workload == "mc_direct":
        specs = [(2, "uniform", 1.0, 10 ** 6), (3, "uniform", 1.0, 10 ** 6),
                 (5, "uniform", 1.0, 10 ** 6), (3, "gauss:1", 8.0, 10 ** 6),
                 (3, "shells:0.5,1.0;1,2", 1.0, 10 ** 6), (3, "uniform", 1.0, 10 ** 7)]
        return [compare_case(out_dir, n, d, p, 2, seed, radius=r) for n, d, r, p in specs]
    if workload == "mc_rejection":
        specs = [(3, "radial-poly:0,0,1", 10 ** 6), (2, "monomial:4,4", 250_000),
                 (3, "monomial:2,2,2", 250_000), (4, "monomial:4,0,0,0", 250_000),
                 (4, "parabolic:0.5", 250_000)]
        return [compare_case(out_dir, n, d, p, 1, seed) for n, d, p in specs]
    if workload == "pdf_curves":
        four_shells = MultiShell((0.25, 0.5, 0.75, 1.0), (1.0, 2.0, 3.0, 4.0))
        return [
            pdf_case(out_dir, 3, "uniform", 50001, [uniform_reference(3, 1.0)]),
            pdf_case(out_dir, 50, "uniform", 50001, [uniform_reference(50, 1.0)]),
            pdf_case(out_dir, 3, "gauss:1", 50001, [gaussian_reference(3, 1.0)],
                     radius=8.0),
            pdf_case(out_dir, 3, "shells:0.25,0.5,0.75,1;1,2,3,4", 10001,
                     [shells_exact(3, 1.0, four_shells, seed), unit_mass(1e-9)]),
            pdf_case(out_dir, 4, "parabolic:0.5", 201, [unit_mass(1e-5)]),
            radial_numeric_case(),
            master_quadrature_case(),
            master_montecarlo_case(seed, 50_000),
            moments_case(),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
