"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --launched T
                                [--trace SPANS]

``--launched`` is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so set-up time covers interpreter start,
``import nballdist.cli`` and building the case list. The package is imported
from ``src/`` of the checkout that holds this file, never from elsewhere.
The pass prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import nballdist from this checkout's ``src/``; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "nballdist", "__init__.py")):
        sys.exit(f"error: no nballdist package under {SRC}")
    sys.path.insert(0, SRC)
    import nballdist.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(nballdist.cli.__file__))) != SRC:
        sys.exit(f"error: nballdist was imported from {nballdist.cli.__file__}, not {SRC}")


def run_cases(cases, tracer=None) -> dict:
    """Run the cases one after another, then check every output.

    Returns the timings and the gate results. A case that raises counts as
    one failed gate; its traceback goes to standard error.
    """
    results = []
    t_first = time.monotonic()
    for case in cases:
        t0 = time.monotonic()
        try:
            out = case.run() if tracer is None else tracer.call("case:" + case.name, case.run,
                                                                span=True)
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        results.append((case, out, error, time.monotonic() - t0))
    wall_s = time.monotonic() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    from workloads import Gate
    gates = []
    for case, out, error, _ in results:
        if error is None:
            try:
                gates.extend(case.check(out))
                continue
            except Exception:
                error = traceback.format_exc()
        print(f"{case.name}: {error}", file=sys.stderr)
        gates.append(Gate(case.name, False, error.strip().splitlines()[-1], wrong=True))

    def timed(kind):
        return sum(dt for case, _, _, dt in results if case.kind == kind)
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "pairs": sum(case.pairs for case in cases),
        "compare_s": timed("compare"),
        "points": sum(case.points for case in cases if case.kind == "pdf"),
        "pdf_s": timed("pdf"),
        "gates": [{"name": g.name, "passed": g.passed, "wrong": g.output_wrong,
                   "detail": g.detail} for g in gates],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the CLI's output files")
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--trace", default=None, metavar="SPANS",
                   help="trace the calls into each module and write the spans to SPANS")
    args = p.parse_args(argv)

    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    cases = workloads.build_cases(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.launched

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_cases(cases, tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        with open(args.trace, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.span_dicts(), "aggregates": {
                           name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                                  "self_s": tracer.self_s[name]} for name in tracer.calls},
                       "counts": tracer.counts}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
