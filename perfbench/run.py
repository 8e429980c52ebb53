"""nballdist benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload {mc_direct,mc_rejection,pdf_curves}
                             [--seed 42] [--seconds 40] [--trace 0|1]

Run from the root of a checkout. Each pass of the workload is one fresh
Python process (``worker.py``) with a single client that runs the cases in
a closed loop, so the package's normalization caches start cold in every
pass, as in a CLI invocation. Passes repeat until the next one might end
after ``--seconds``; every pass uses the same seed, so every pass does the
same work. Medians over the passes are reported.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (first
case start to last case end), ``setup_s`` (interpreter start, import and
case list), ``items_per_s`` (pairs histogrammed per second of ``compare``
time on mc_*, grid points written per second of ``pdf`` time on
pdf_curves) and ``peak_rss_mb``. With ``--trace 1`` untraced and traced
passes alternate; every per-layer metric of the traced passes is printed,
with ``trace.overhead_s``, the traced minus the untraced median ``wall_s``,
and the result line carries those named in ``BENCHMARK.json``. Every pass
checks every output; ``attempted`` and ``failed`` count the correctness
gates, and ``fail_rate`` is their ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Output files go under ``.perfbench_out/`` in the checkout,
which keeps the traced runs' span files.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0  # a run must end within 180 s


def run_pass(workload: str, seed: int, out_dir: str, deadline: float, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir, *extra]
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - launched, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def items_per_s(result: dict) -> float:
    if result["pairs"]:
        return result["pairs"] / result["compare_s"]
    return result["points"] / result["pdf_s"]


def describe(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.6g} .. {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # name -> unit of the metrics the result line carries. The per-layer ones
    # are those that every workload reaches; the others would read exactly 0
    # on some workload, and are printed only.
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "nballdist", "__init__.py")):
        print(f"error: {ROOT} holds no src/nballdist to benchmark", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, f"run-{os.getpid()}")
    spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    plain, traced, cycles = [], [], []
    deadline = start + DEADLINE_S
    try:
        while True:
            t_cycle = time.monotonic()
            os.makedirs(out_dir, exist_ok=True)
            trace_this = bool(args.trace) and len(traced) < len(plain)
            result = run_pass(args.workload, args.seed, out_dir, deadline,
                              *(["--trace", spans] if trace_this else []))
            shutil.rmtree(out_dir)
            (traced if trace_this else plain).append(result)
            cycles.append(time.monotonic() - t_cycle)
            if args.trace and not traced:
                continue
            # stop before a pass that would likely end after --seconds
            if time.monotonic() - start + 1.1 * statistics.median(cycles) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = plain + traced
    gates = [g for r in passes for g in r["gates"]]
    failed = [g for g in gates if not g["passed"]]
    series = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in passes],
        "items_per_s": [items_per_s(r) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes in {time.monotonic() - start:.1f} s")
    for name, unit in end_to_end.items():
        values = series[name]
        print(f"  {name:<28} {statistics.median(values):.6g} {unit}  ({describe(values)})")
    print(f"  {'fail_rate':<28} {len(failed) / len(gates):.6g} ratio  "
          f"({len(failed)} of {len(gates)} gates failed)")
    for g in failed:
        print(f"  FAILED {g['name']}: {g['detail']}")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # printed only: it is the difference of two noisy medians, and can be < 0
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(series["wall_s"]))
        print(f"  per-layer metrics (median of traced passes; spans in {os.path.relpath(spans, ROOT)}):")
        for name, value in layers.items():
            print(f"    {name:<32} {value:.6g} {LAYER_UNITS.get(name, 's')}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"correct": not any(g["wrong"] for g in gates), "attempted": len(gates),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
