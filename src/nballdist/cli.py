"""Command-line frontend.

Subcommands
-----------
pdf      tabulate an analytic pair-distance PDF to CSV (``s,analytic_density``)
compare  Monte Carlo histogram vs analytic curve; CSV + JSON report; exit 0
         iff the chi-square p-value clears the threshold
moment   closed-form <s^m> (uniform / gaussian, optional hard core) as JSON
energy   closed-form self-energies (coulomb, coulomb-gauss, nunubar,
         nunubar-gauss) as JSON

Densities use a small spec language:
    uniform | radial-poly:c0,c1,... | parabolic:alpha | gauss:sigma |
    shells:r1,...,rK;rho1,...,rhoK | monomial:e1,...,en

Every run writes a manifest JSON next to its outputs with the full resolved
parameter set; outputs are reproducible byte for byte from a manifest
(the manifest itself records wall-clock duration, so compare output files,
not manifests). Exit codes: 0 success/pass, 2 usage, 3 domain/unsupported,
4 runtime-statistical failure. The only environment override is
NBALLDIST_OUT_DIR, which re-roots relative output paths.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, _csvfmt
from . import applications as apps
from . import arbitrary, montecarlo, symmetric, uniform
from .core import (
    BallGeometry,
    CartesianMonomial,
    Gaussian,
    GeoProbError,
    EfficiencyError,
    InsufficientDataError,
    MultiShell,
    ParabolicRadial,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
)
from .montecarlo import SamplerConfig, merge_histograms

_STREAMS = 16  # fixed substream fan-out so thread count never changes results


# Grid points per evaluator call of ``pdf``. Every evaluator is elementwise
# in s, so the block size changes no output bit; it bounds the evaluators'
# grid-sized temporaries to 4096 points.
_PDF_BLOCK = 4096


def _write_rows(fh, *columns) -> None:
    """Comma-separated lines of %.17g floats, row i holding element i of
    each column, formatted by the array kernel of ``_csvfmt``. An integer
    count below 10^17 prints as its digits, as ``str(int(c))`` does."""
    fh.writelines(_csvfmt.csv_rows(columns))


def parse_density(spec: str):
    try:
        if spec == "uniform":
            return Uniform()
        kind, _, payload = spec.partition(":")
        if kind == "radial-poly":
            return RadialPolynomial(tuple(float(c) for c in payload.split(",")))
        if kind == "parabolic":
            return ParabolicRadial(float(payload))
        if kind == "gauss":
            return Gaussian(float(payload))
        if kind == "shells":
            rpart, _, dpart = payload.partition(";")
            radii = tuple(float(r) for r in rpart.split(","))
            dens = tuple(float(d) for d in dpart.split(","))
            return MultiShell(radii=radii, densities=dens)
        if kind == "monomial":
            return CartesianMonomial(tuple(int(e) for e in payload.split(",")))
    except (ValueError, GeoProbError) as exc:
        raise _UsageError(f"bad density spec {spec!r}: {exc}") from exc
    raise _UsageError(f"unknown density kind in {spec!r}")


class _UsageError(Exception):
    pass


def _pointwise(scalar_route):
    """Array callable over a route that takes one float s at a time: the
    n = 2 master quadrature and the forced uniform representations other
    than reg_inc_beta. A float in gives a float out."""
    def evaluate(s):
        s = np.asarray(s, dtype=float)
        out = np.array([scalar_route(v) for v in s.ravel().tolist()], dtype=float)
        return out.reshape(s.shape) if s.ndim else float(out[0])
    return evaluate


def resolve_evaluator(geometry: BallGeometry, density, representation=None):
    """Analytic evaluator for the (geometry, density) pair: it takes an
    ndarray of s and returns the density at each, in the same shape (a float
    for a float), and raises DomainError if any s lies outside the support."""
    n = geometry.dimension
    if isinstance(density, Uniform):
        if representation is not None:
            rep = uniform.Representation(representation)
            if rep is uniform.Representation.REG_INC_BETA:
                return lambda s: uniform.pdf_uniform_repr(geometry, s, rep)
            return _pointwise(lambda s: uniform.pdf_uniform_repr(geometry, s, rep))
        return lambda s: uniform.pdf_uniform(geometry, s)
    if isinstance(density, Gaussian):
        gb = symmetric.GaussianBall(n, density.sigma)
        return lambda s: symmetric.pdf_gaussian(gb, s)
    if isinstance(density, ParabolicRadial) and n == 3:
        return lambda s: symmetric.pdf_radial_parabolic(geometry, density.alpha, s)
    if isinstance(density, RadialPolynomial) and n == 3 and density.coefficients == (0.0, 0.0, 1.0):
        return lambda s: symmetric.pdf_radial_r2(geometry, s)
    if isinstance(density, MultiShell):
        return lambda s: symmetric.pdf_multishell(geometry, density, s)
    if isinstance(density, (RadialPolynomial, ParabolicRadial)):
        return lambda s: symmetric.pdf_radial_numeric(geometry, density, s)
    if isinstance(density, CartesianMonomial):
        exps = density.exponents
        if n == 2 and exps == (4, 4):
            return lambda s: arbitrary.pdf_example_2d(geometry, s)
        if n == 3 and exps == (2, 2, 2):
            return lambda s: arbitrary.pdf_example_3d(geometry, s)
        if n == 4 and exps == (4, 0, 0, 0):
            return lambda s: arbitrary.pdf_example_4d(geometry, s)
        if n == 2:
            return _pointwise(
                lambda s: arbitrary.pdf_master(geometry, density, s, "quadrature", 1e-8).value)
        raise UnsupportedError(
            f"no analytic route for monomial {exps} in n={n}; "
            "closed forms exist for (4,4)@n=2, (2,2,2)@n=3, (4,0,0,0)@n=4")
    raise UnsupportedError(f"no analytic evaluator for {type(density).__name__} in n={n}")


def _out_path(path: str) -> str:
    root = os.environ.get("NBALLDIST_OUT_DIR")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _write_manifest(base_output: str, subcommand: str, params: dict,
                    outputs: list, started: float) -> None:
    manifest = {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seed": params.get("seed"),
        "outputs": [os.path.basename(p) for p in outputs],
        "duration_seconds": time.monotonic() - started,
    }
    with open(base_output + ".manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_pdf(args) -> int:
    started = time.monotonic()
    if args.grid < 1:
        raise _UsageError(f"--grid must be at least 1, got {args.grid}")
    density = parse_density(args.density)
    geometry = BallGeometry(args.dimension, args.radius)
    evaluator = resolve_evaluator(geometry, density, args.representation)
    grid = np.linspace(0.0, geometry.diameter, args.grid)
    out = _out_path(args.output)
    outputs = [out]
    # formed first, so a sidecar out of the double range stops the run before any write
    sidecar = None
    if isinstance(density, MultiShell) and geometry.dimension == 3:
        sidecar = symmetric.multishell_polynomial(geometry, density).to_json(indent=2, sort_keys=True) + "\n"
    # Written block by block, so only the grid is held whole. Rows go to a
    # temporary file first: an evaluator that fails part way leaves no
    # partial CSV, and an older file of the same name stands.
    partial = out + ".partial"
    try:
        with open(partial, "w", newline="\n") as fh:
            fh.write("s,analytic_density\n")
            for lo in range(0, len(grid), _PDF_BLOCK):
                block = grid[lo:lo + _PDF_BLOCK]
                _write_rows(fh, block, evaluator(block))
        os.replace(partial, out)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    if sidecar is not None:
        shells_path = os.path.splitext(out)[0] + ".shells.json"
        with open(shells_path, "w", newline="\n") as fh:
            fh.write(sidecar)
        outputs.append(shells_path)
    params = {"dimension": args.dimension, "radius": args.radius,
              "density": args.density, "grid": args.grid,
              "representation": args.representation, "seed": None}
    _write_manifest(out, "pdf", params, outputs, started)
    return 0


def cmd_compare(args) -> int:
    started = time.monotonic()
    if not (0.0 <= args.threshold <= 1.0):
        raise _UsageError(f"--threshold must lie in [0, 1], got {args.threshold!r}")
    density = parse_density(args.density)
    geometry = BallGeometry(args.dimension, args.radius)
    evaluator = resolve_evaluator(geometry, density, None)

    hist = empirical_pair_pdf_parallel(geometry, density, args.pairs, args.bins,
                                       args.seed, max_workers=args.threads)
    analytic = evaluator
    if (isinstance(density, RadialPolynomial) and any(density.coefficients[1::2])
            and geometry.dimension != 3):
        # odd powers of r take a nested quadrature per point; feed compare the
        # interpolant of a dense table (profiles in r^2 take the exact bin masses)
        grid = np.linspace(0.0, geometry.diameter, 513)
        vals = evaluator(grid)
        analytic = lambda s: np.interp(s, grid, vals)
    report = montecarlo.compare(hist, analytic)

    out = _out_path(args.output)
    csv_path = out if out.endswith(".csv") else out + ".csv"
    base = os.path.splitext(csv_path)[0]
    dens_analytic = evaluator(0.5 * (hist.edges[:-1] + hist.edges[1:]))
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("s_lo,s_hi,count,empirical_density,analytic_density\n")
        _write_rows(fh, hist.edges[:-1], hist.edges[1:], hist.counts,
                    hist.empirical_density, dens_analytic)
    report_path = base + ".report.json"
    with open(report_path, "w", newline="\n") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    params = {"dimension": args.dimension, "radius": args.radius,
              "density": args.density, "pairs": args.pairs, "bins": args.bins,
              "seed": args.seed, "threshold": args.threshold,
              "threads": args.threads, "substreams": _STREAMS}
    _write_manifest(csv_path, "compare", params, [csv_path, report_path], started)
    return 0 if report.p_value >= args.threshold else 4


def empirical_pair_pdf_parallel(geometry, density, pairs: int, bins: int, seed: int,
                                max_workers: int = 1):
    """Histogram built from a fixed fan-out of substreams, merged in stream
    order: results are identical for every thread count."""
    montecarlo.check_histogram_request(pairs, bins)
    if pairs < 16 * _STREAMS:
        blocks = [(0, pairs)]
    else:
        per, extra = divmod(pairs, _STREAMS)
        blocks = [(i, per + (1 if i < extra else 0)) for i in range(_STREAMS)]
    edges = np.linspace(0.0, geometry.diameter, bins + 1)

    def run_block(block):
        stream_id, count = block
        cfg = SamplerConfig(seed=seed, count=2 * count, stream_id=stream_id)
        return montecarlo.substream_histogram(geometry, density, cfg, edges)

    if max_workers <= 1 or len(blocks) == 1:
        hists = [run_block(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            hists = list(pool.map(run_block, blocks))
    return merge_histograms(*hists)


def cmd_moment(args) -> int:
    geometry = None
    if args.kind == "uniform":
        geometry = BallGeometry(args.dimension, args.radius)
        if args.hardcore is not None:
            value = apps.moment_hardcore(geometry, args.hardcore, args.m)
            family = "uniform-hardcore"
        else:
            value = apps.moment_uniform(geometry, args.m)
            family = "uniform"
    elif args.kind == "gaussian":
        value = apps.moment_gaussian(args.dimension, args.sigma, args.m)
        family = "gaussian"
    else:
        raise _UsageError(f"unknown moment kind {args.kind!r}")
    doc = {"value": value, "family": family, "dimension": args.dimension,
           "m": args.m, "radius": args.radius, "sigma": args.sigma,
           "hardcore": args.hardcore}
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_energy(args) -> int:
    kind = args.kind
    if kind == "coulomb":
        spec = apps.SelfEnergySpec(count=args.count, coupling=args.coupling,
                                   geometry=BallGeometry(args.dimension, args.radius))
        value = apps.coulomb_self_energy(spec)
    elif kind == "coulomb-gauss":
        spec = apps.SelfEnergySpec(count=args.count, coupling=args.coupling, sigma=args.sigma)
        value = apps.coulomb_gaussian_self_energy(spec, n=args.dimension)
    elif kind == "nunubar":
        value = apps.neutrino_self_energy_uniform(args.radius, args.hardcore, args.count,
                                                  g_f2=args.coupling, a2=args.a2)
    elif kind == "nunubar-gauss":
        value = apps.neutrino_self_energy_gaussian(args.sigma, args.hardcore, args.count,
                                                   g_f2=args.coupling, a2=args.a2)
    else:
        raise _UsageError(f"unknown energy kind {kind!r}")
    doc = {"value": value, "kind": kind, "count": args.count,
           "dimension": args.dimension, "radius": args.radius,
           "sigma": args.sigma, "hardcore": args.hardcore,
           "coupling": args.coupling, "a2": args.a2}
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nballdist",
        description="Pair-distance PDFs in n-balls: closed forms, shells, "
                    "arbitrary densities, and seeded Monte Carlo validation.",
        epilog="Reference presets for nucleon applications (documented, never "
               f"implied): hard core r_c = {apps.HARD_CORE_RADIUS_CM} cm; "
               f"neutrino couplings a_e={apps.COUPLING_ELECTRON}, "
               f"a_p={apps.COUPLING_PROTON}, a_n={apps.COUPLING_NEUTRON}.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("pdf", help="tabulate an analytic PDF to CSV")
    d.add_argument("-n", "--dimension", type=int, required=True)
    d.add_argument("-R", "--radius", type=float, default=1.0)
    d.add_argument("--density", required=True)
    d.add_argument("--grid", type=int, default=201)
    d.add_argument("--representation", default=None,
                   choices=[r.value for r in uniform.Representation],
                   help="force a specific uniform-ball representation")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=cmd_pdf)

    c = sub.add_parser("compare", help="Monte Carlo histogram vs analytic curve")
    c.add_argument("-n", "--dimension", type=int, required=True)
    c.add_argument("-R", "--radius", type=float, default=1.0)
    c.add_argument("--density", required=True)
    c.add_argument("--pairs", type=int, default=1_000_000)
    c.add_argument("--bins", type=int, default=64)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--threshold", type=float, default=1e-3)
    c.add_argument("--threads", type=int, default=1,
                   help="worker threads (affects runtime only, never results)")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=cmd_compare)

    m = sub.add_parser("moment", help="closed-form <s^m>")
    m.add_argument("-n", "--dimension", type=int, required=True)
    m.add_argument("-m", dest="m", type=int, required=True)
    m.add_argument("--kind", choices=["uniform", "gaussian"], default="uniform")
    m.add_argument("-R", "--radius", type=float, default=1.0)
    m.add_argument("--sigma", type=float, default=1.0)
    m.add_argument("--hardcore", type=float, default=None)
    m.set_defaults(func=cmd_moment)

    e = sub.add_parser("energy", help="closed-form self-energies")
    e.add_argument("--kind", required=True,
                   choices=["coulomb", "coulomb-gauss", "nunubar", "nunubar-gauss"])
    e.add_argument("-n", "--dimension", type=int, default=3)
    e.add_argument("-Z", "-N", "--count", dest="count", type=int, required=True)
    e.add_argument("-R", "--radius", type=float, default=1.0)
    e.add_argument("--sigma", type=float, default=1.0)
    e.add_argument("--hardcore", type=float, default=None)
    e.add_argument("--coupling", type=float, default=1.0,
                   help="q^2 for coulomb kinds, G_F^2 for nunubar kinds")
    e.add_argument("--a2", type=float, default=1.0,
                   help="neutrino coupling product a_i a_j (explicit factor)")
    e.set_defaults(func=cmd_energy)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EfficiencyError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GeoProbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
