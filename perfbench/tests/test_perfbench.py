"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nballdist import _rng, applications, arbitrary, cli, core, montecarlo, symmetric, uniform  # noqa: E402

MODULES = (_rng, applications, arbitrary, cli, core, montecarlo, symmetric, uniform)
CLASSES = (_rng.CounterStream, symmetric.PiecewisePolynomial)


def span(id, start, end, parent=None, thread=1, agg=0.0):
    return tracing.Span(id, f"s{id}", start, end, parent, thread, agg)


def test_self_times_on_a_synthetic_tree():
    spans = [
        span(0, 0.0, 10.0),
        # two pool children overlapping on other threads cover [1, 6]
        span(1, 1.0, 4.0, parent=0, thread=2),
        span(2, 2.0, 6.0, parent=0, thread=3, agg=0.5),
        # a child running past its parent's end is clipped to [8, 10]
        span(3, 8.0, 11.0, parent=0, agg=1.0),
        span(4, 2.5, 3.0, parent=2),
    ]
    spans[0].agg_child_s = 1.5
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0 - 1.5)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(4.0 - 0.5 - 0.5)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(0.5)


def test_span_under_an_aggregate_is_subtracted_once():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        # span "outer" [0, 10] > aggregate [1, 6] > span "inner" [3, 4]
        tracer.call("outer", lambda: tracer.call(
            "agg", lambda: tracer.call("inner", lambda: None, span=True)), span=True)
    finally:
        tracing.time.perf_counter = real
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(1.0)
    assert tracer.self_s["agg"] == pytest.approx(5.0 - 1.0)


def test_self_time_never_negative():
    own = tracing.self_times([span(0, 0.0, 1.0, agg=2.0)])
    assert own[0] == 0.0


def test_a_wrong_evaluator_fails_a_gate(tmp_path, monkeypatch):
    case = workloads.pdf_case(str(tmp_path), 3, "uniform", 101, [workloads.uniform_reference(3, 1.0)])
    right = worker.run_cases([case])
    assert [g["passed"] for g in right["gates"]] == [True]

    resolve = cli.resolve_evaluator

    def off_by_a_millionth(*args, **kwargs):
        evaluator = resolve(*args, **kwargs)
        return lambda s: evaluator(s) * (1.0 + 1e-6)
    monkeypatch.setattr(cli, "resolve_evaluator", off_by_a_millionth)
    wrong = worker.run_cases([case])
    failed = [g for g in wrong["gates"] if not g["passed"]]
    assert len(failed) / len(wrong["gates"]) > 0
    assert all(g["wrong"] for g in failed)


def test_a_raising_case_counts_as_a_failed_gate(tmp_path):
    def boom():
        raise RuntimeError("injected")
    case = workloads.Case("boom", boom, lambda out: [], "library")
    gates = worker.run_cases([case])["gates"]
    assert [(g["passed"], g["wrong"]) for g in gates] == [(False, True)]


def _attributes():
    snap = {}
    for owner in MODULES + CLASSES:
        for name, value in vars(owner).items():
            snap[(owner.__name__, name)] = value
    return snap


def test_traced_run_restores_every_attribute(tmp_path):
    before = _attributes()
    cases = [
        workloads.compare_case(str(tmp_path), 3, "shells:0.5,1.0;1,2", 4000, 2, 42),
        workloads.compare_case(str(tmp_path), 3, "radial-poly:0,0,1", 2000, 1, 42),
        workloads.pdf_case(str(tmp_path), 3, "uniform", 101, []),
        workloads.master_montecarlo_case(42, 2000),
        workloads.moments_case(),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.resolve_evaluator is not before[("nballdist.cli", "resolve_evaluator")]
    result = worker.run_cases(cases, tracer)
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert all(g["passed"] for g in result["gates"]), result["gates"]
    layers = tracer.layer_metrics()
    assert layers["_rng.words"] > 0 and layers["montecarlo.proposals"] > 0
    assert layers["applications.calls"] > 0 and layers["arbitrary.density_points"] > 0
    assert layers["cli.pair_hist_s"] > 0
    # sampler spans, on pool threads (the shells case) or not, parent to the histogram span
    pools = {sp.id: sp for sp in tracer.spans if sp.name == "cli.empirical_pair_pdf_parallel"}
    samplers = [sp for sp in tracer.spans if sp.name == "montecarlo.sample_density"]
    assert samplers and all(sp.parent in pools for sp in samplers)
    assert any(sp.thread != pools[sp.parent].thread for sp in samplers)


EXACT = ("_rng.words", "montecarlo.proposals", "symmetric.integrand_evals",
         "core.density_value_points")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _traced_pass(workload, out_dir):
    spans = os.path.join(out_dir, "spans.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", "42", "--out", out_dir, "--launched", repr(time.monotonic()),
           "--trace", spans]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    with open(spans) as fh:
        assert json.load(fh)["spans"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(g["passed"] for g in result["gates"]), result["gates"]
    return result["layers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_and_reported_metrics_are_nonzero(workload, tmp_path):
    first = _traced_pass(workload, str(tmp_path))
    second = _traced_pass(workload, str(tmp_path))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    # the per-layer metrics of the result line are reached by every workload
    assert all(first[m["name"]] > 0 for m in _spec()["per_layer"]), first
    if workload == "mc_rejection":
        assert all(first[k] > 0 for k in EXACT)


def test_result_metrics_match_the_benchmark_spec():
    spec = _spec()
    for metric in spec["per_layer"]:
        assert tracing.LAYER_UNITS[metric["name"]] == metric["unit"], metric
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
