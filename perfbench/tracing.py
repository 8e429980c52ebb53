"""Spans and counters recorded around calls into the nballdist modules.

Everything here is installed from the benchmark's side: ``Tracer.install``
replaces module attributes and class methods with timing wrappers, and
``Tracer.restore`` puts every original object back. Nothing in the package
is edited, and an untraced run installs nothing. The wrappers sit on the
names the callers look up at call time (``uniform.reg_inc_beta``,
``montecarlo.density_value``, ...), so calls made inside a module are caught
where they cross into another one.

Two kinds of record share one per-thread call stack:

* spans, for coarse calls (a CLI command, a histogram build, a sampler call,
  a master-formula call): name, start, end, parent span and thread, kept in
  memory and written out when the run ends. Spans opened on pool threads
  take the ``empirical_pair_pdf_parallel`` span as parent;
* aggregates, for per-point calls (evaluators, special functions, quadrature):
  call count, total time and self time, with no per-call record.

Self time is a call's duration minus the time its children cover. For spans
it is computed afterwards from the span tree (``self_times``), so children
running concurrently on pool threads are counted once. Work that pool
threads do in parallel is timed per thread and summed over threads instead:
the ``_rng`` aggregates, and ``cli.pair_hist_s``, which adds up each
block's distances and histogram, from the return of its sampler to its
``DistanceHistogram``, on the thread that ran the block.
"""
from __future__ import annotations

import statistics
import threading
import time
from dataclasses import asdict, dataclass

# Special functions counted where uniform, symmetric, arbitrary, applications
# and montecarlo look them up; calls inside core itself are part of the call.
SPECIAL_NAMES = ("reg_inc_beta", "inc_gamma_upper", "hyp2f1_halfint", "log_gamma", "beta")
APPLICATION_NAMES = ("moment_uniform", "moment_hardcore", "moment_gaussian",
                     "coulomb_self_energy", "coulomb_gaussian_self_energy",
                     "neutrino_self_energy_uniform", "neutrino_self_energy_gaussian")

# name -> unit of every per-layer metric ``layer_metrics`` returns
LAYER_UNITS = {
    "_rng.words": "count",
    "_rng.normals_s": "s",
    "_rng.uniforms_s": "s",
    "montecarlo.sample_s": "s",
    "montecarlo.proposals": "count",
    "montecarlo.accept_ratio": "ratio",
    "montecarlo.compare_s": "s",
    "montecarlo.bin_mass_evals": "count",
    "cli.pair_hist_s": "s",
    "cli.evaluator_calls": "count",
    "cli.evaluator_s": "s",
    "cli.self_s": "s",
    "core.density_value_points": "count",
    "core.density_value_s": "s",
    "core.special_calls": "count",
    "core.special_s": "s",
    "uniform.pdf_calls": "count",
    "uniform.pdf_s": "s",
    "symmetric.radial_first_s": "s",
    "symmetric.radial_warm_s": "s",
    "symmetric.quad_calls": "count",
    "symmetric.integrand_evals": "count",
    "symmetric.piecewise_calls": "count",
    "symmetric.piecewise_s": "s",
    "arbitrary.master_quad_first_s": "s",
    "arbitrary.master_mc_first_s": "s",
    "arbitrary.master_warm_s": "s",
    "arbitrary.density_points": "count",
    "applications.calls": "count",
    "applications.s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    agg_child_s: float = 0.0  # time of aggregate children on the same thread
    # opened inside an aggregate call, whose time the parent span already subtracts
    under_aggregate: bool = False


class _Frame:
    __slots__ = ("name", "span_id", "is_span", "child_s")

    def __init__(self, name, span_id, is_span):
        self.name = name
        self.span_id = span_id  # own span, or the innermost enclosing one
        self.is_span = is_span
        self.child_s = 0.0


def _union_length(intervals) -> float:
    total = 0.0
    lo_cur = hi_cur = None
    for lo, hi in sorted(intervals):
        if hi_cur is not None and lo <= hi_cur:
            hi_cur = max(hi_cur, hi)
            continue
        if hi_cur is not None:
            total += hi_cur - lo_cur
        lo_cur, hi_cur = lo, hi
    if hi_cur is not None:
        total += hi_cur - lo_cur
    return total


def self_times(spans) -> dict:
    """Span id -> duration, minus the union of its child spans' intervals
    clipped to its own, minus the time of its aggregate children."""
    children: dict = {}
    for sp in spans:
        if not sp.under_aggregate:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = _union_length(
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.id, ()) if c.end > sp.start and c.start < sp.end)
        out[sp.id] = max(sp.end - sp.start - covered - sp.agg_child_s, 0.0)
    return out


def _first_and_rest(records, keep=lambda key: True):
    """Sum of each key's first duration, and the later durations."""
    seen, first, rest = set(), 0.0, []
    for key, dur in records:
        if not keep(key):
            continue
        if key in seen:
            rest.append(dur)
        else:
            seen.add(key)
            first += dur
    return first, rest


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}
        self.durations: dict = {}  # name -> [(key, seconds)], for first-call metrics
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._pool_parent = None
        self._saved: list = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.proposals = 0
            return self._local.stack

    def add(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, args=(), kwargs=None, span: bool = False, key=None):
        """Run ``fn(*args, **kwargs)`` recorded as a span or an aggregate."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_span = parent.span_id
        elif threading.get_ident() != self._main:
            parent_span = self._pool_parent
        else:
            parent_span = None
        if span:
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = _Frame(name, span_id, True)
        else:
            frame = _Frame(name, parent_span, False)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None and not (span and parent.is_span):
                parent.child_s += dur
            with self._lock:
                if span:
                    self.spans[span_id] = Span(span_id, name, t0, t1, parent_span,
                                               threading.get_ident(), frame.child_s,
                                               parent is not None and not parent.is_span)
                else:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.total_s[name] = self.total_s.get(name, 0.0) + dur
                    self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child_s
                if key is not None:
                    self.durations.setdefault(name, []).append((key, dur))

    # -- installing and restoring wrappers ---------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, span: bool = False, key=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span=span,
                             key=None if key is None else key(*args, **kwargs))
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        from nballdist import _rng, applications, arbitrary, cli, core, montecarlo, symmetric, uniform

        words = _rng.CounterStream.words

        def words_wrapper(stream, k):
            self.add("_rng.words", int(k))
            return self.call("_rng.words", words, (stream, k))
        self._patch(_rng.CounterStream, "words", words_wrapper)
        self._wrap(_rng.CounterStream, "uniforms", "_rng.uniforms")
        self._wrap(_rng.CounterStream, "normals", "_rng.normals")

        sample_density = montecarlo.sample_density

        def sample_wrapper(geometry, density, config):
            self._stack()
            before = self._local.proposals
            out = self.call("montecarlo.sample_density", sample_density,
                            (geometry, density, config), span=True)
            self._local.sampled_at = time.perf_counter()
            if self._local.proposals > before:  # the rejection loop ran
                self.add("montecarlo.accepted", int(config.count))
            return out
        self._patch(montecarlo, "sample_density", sample_wrapper)

        histogram = montecarlo.DistanceHistogram

        def histogram_wrapper(*args, **kwargs):
            # inside empirical_pair_pdf_parallel, a block ends by building its
            # histogram: the time since its sampler returned is distances and
            # np.histogram, on this thread
            sampled_at = getattr(self._local, "sampled_at", None)
            if self._pool_parent is not None and sampled_at is not None:
                self._local.sampled_at = None
                self.add("cli.pair_hist_blocks_s", time.perf_counter() - sampled_at)
            return histogram(*args, **kwargs)
        self._patch(montecarlo, "DistanceHistogram", histogram_wrapper)

        for module, counter in ((montecarlo, "montecarlo.proposals"),
                                (arbitrary, "arbitrary.density_points")):
            self._wrap_density_value(module, counter)

        self._wrap(montecarlo, "compare", "montecarlo.compare", span=True)

        pair_hist = cli.empirical_pair_pdf_parallel

        def pair_hist_wrapper(*args, **kwargs):
            def run():
                self._pool_parent = self._stack()[-1].span_id
                try:
                    return pair_hist(*args, **kwargs)
                finally:
                    self._pool_parent = None
            return self.call("cli.empirical_pair_pdf_parallel", run, span=True)
        self._patch(cli, "empirical_pair_pdf_parallel", pair_hist_wrapper)
        self._wrap(cli, "merge_histograms", "cli.merge_histograms")
        self._wrap(cli, "cmd_pdf", "cli.cmd_pdf", span=True)
        self._wrap(cli, "cmd_compare", "cli.cmd_compare", span=True)

        resolve = cli.resolve_evaluator

        def resolve_wrapper(*args, **kwargs):
            evaluator = resolve(*args, **kwargs)

            def traced_evaluator(s):
                stack = self._stack()
                if stack and stack[-1].name == "montecarlo.compare":
                    self.add("montecarlo.bin_mass_evals", 1)
                return self.call("cli.evaluator", evaluator, (s,))
            return traced_evaluator
        self._patch(cli, "resolve_evaluator", resolve_wrapper)

        for module in (uniform, symmetric, arbitrary, applications, montecarlo):
            for name in SPECIAL_NAMES:
                if module.__dict__.get(name) is getattr(core, name):
                    self._wrap(module, name, "core.special")

        self._wrap(uniform, "pdf_uniform", "uniform.pdf")
        self._wrap(symmetric, "pdf_radial_numeric", "symmetric.radial",
                   key=lambda geometry, density, *a, **k: (geometry, density))
        self._wrap(symmetric, "multishell_polynomial", "symmetric.multishell_polynomial")
        self._wrap(symmetric.PiecewisePolynomial, "__call__", "symmetric.piecewise")

        quad = symmetric.quad

        def quad_wrapper(func, *args, **kwargs):
            def counted(*a):
                self.add("symmetric.integrand_evals", 1)
                return func(*a)
            return self.call("symmetric.quad", quad, (counted,) + args, kwargs)
        self._patch(symmetric, "quad", quad_wrapper)

        def master_key(geometry, density, s, method="quadrature", budget=None, seed=0):
            return (geometry, density, method, budget, seed)
        self._wrap(arbitrary, "pdf_master", "arbitrary.pdf_master", span=True, key=master_key)

        for name in APPLICATION_NAMES:
            self._wrap(applications, name, "applications")

    def _wrap_density_value(self, module, counter: str) -> None:
        fn = module.density_value

        def wrapper(model, points, geometry=None):
            rows = len(points)
            self.add(counter, rows)
            self.add("core.density_value_points", rows)
            if module.__name__ == "nballdist.montecarlo":
                self._stack()
                self._local.proposals += rows
            return self.call("core.density_value", fn, (model, points, geometry))
        self._patch(module, "density_value", wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def span_dicts(self) -> list:
        return [asdict(sp) for sp in self.spans]

    def layer_metrics(self) -> dict:
        """Every per-layer metric in ``LAYER_UNITS`` except ``trace.overhead_s``,
        which needs an untraced run to compare with."""
        own = self_times(self.spans)
        by_name: dict = {}
        for sp in self.spans:
            by_name[sp.name] = by_name.get(sp.name, 0.0) + own[sp.id]
        c, calls, tot, slf = self.counts.get, self.calls.get, self.total_s.get, self.self_s.get
        proposals = c("montecarlo.proposals", 0)
        radial_first, radial_rest = _first_and_rest(self.durations.get("symmetric.radial", []))
        master = self.durations.get("arbitrary.pdf_master", [])
        quad_first, _ = _first_and_rest(master, lambda k: k[2] == "quadrature")
        mc_first, _ = _first_and_rest(master, lambda k: k[2] == "montecarlo")
        _, master_rest = _first_and_rest(master)
        metrics = {
            "_rng.words": c("_rng.words", 0),
            "_rng.normals_s": slf("_rng.normals", 0.0),
            "_rng.uniforms_s": slf("_rng.uniforms", 0.0) + slf("_rng.words", 0.0),
            "montecarlo.sample_s": by_name.get("montecarlo.sample_density", 0.0),
            "montecarlo.proposals": proposals,
            "montecarlo.accept_ratio": c("montecarlo.accepted", 0) / proposals if proposals else 0.0,
            "montecarlo.compare_s": by_name.get("montecarlo.compare", 0.0),
            "montecarlo.bin_mass_evals": c("montecarlo.bin_mass_evals", 0),
            "cli.pair_hist_s": (c("cli.pair_hist_blocks_s", 0.0)
                                + tot("cli.merge_histograms", 0.0)),
            "cli.evaluator_calls": calls("cli.evaluator", 0),
            "cli.evaluator_s": tot("cli.evaluator", 0.0),
            "cli.self_s": by_name.get("cli.cmd_pdf", 0.0) + by_name.get("cli.cmd_compare", 0.0),
            "core.density_value_points": c("core.density_value_points", 0),
            "core.density_value_s": tot("core.density_value", 0.0),
            "core.special_calls": calls("core.special", 0),
            "core.special_s": tot("core.special", 0.0),
            "uniform.pdf_calls": calls("uniform.pdf", 0),
            "uniform.pdf_s": slf("uniform.pdf", 0.0),
            "symmetric.radial_first_s": radial_first,
            "symmetric.radial_warm_s": statistics.median(radial_rest) if radial_rest else 0.0,
            "symmetric.quad_calls": calls("symmetric.quad", 0),
            "symmetric.integrand_evals": c("symmetric.integrand_evals", 0),
            "symmetric.piecewise_calls": calls("symmetric.piecewise", 0),
            "symmetric.piecewise_s": tot("symmetric.piecewise", 0.0),
            "arbitrary.master_quad_first_s": quad_first,
            "arbitrary.master_mc_first_s": mc_first,
            "arbitrary.master_warm_s": statistics.median(master_rest) if master_rest else 0.0,
            "arbitrary.density_points": c("arbitrary.density_points", 0),
            "applications.calls": calls("applications", 0),
            "applications.s": tot("applications", 0.0),
        }
        assert metrics.keys() == LAYER_UNITS.keys()
        return metrics
