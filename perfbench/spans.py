"""Spans recorded from outside the program, and the per-layer metrics.

Each wrapper is installed in the namespace where the caller looks the name
up: the modules import with `from .x import y`, so `montecarlo.sample_profile`
is wrapped, not `traffic.sample_profile`.  Spans carry the trial index as
their id, live in memory while the run lasts, and are written out at its end.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

SCHEME_SPANS = {
    "pcd.simulate": "pcd",
    "hcm.simulate": "hcm",
    "pam_shallow.serve": "pam-shallow",
    "pam_steep.serve": "pam-steep",
}


def _trial_arg(args, kwargs):
    return kwargs.get("trial", args[3] if len(args) > 3 else 0)


def _observe_profile(tracer, args, kwargs, profile):
    counts = profile.counts
    tracer.add("traffic.cells", counts.size)
    tracer.add("traffic.requests", int(counts.sum()))
    tracer.add("traffic.useful_cells", int(np.count_nonzero(counts)))


def _observe_serve(tracer, args, kwargs, out):
    tracer.add("pam_shallow.evicted_requests", out.evicted_requests)
    tracer.add("pam_shallow.feasible_trials", int(out.all_feasible))


def _observe_matching(tracer, args, kwargs, out):
    if tracer.parent_name() != "pam_shallow.serve":
        return  # a direct caller outside the Monte Carlo loop
    tracer.add("matching.left_vertices", args[0].num_left)
    tracer.add("matching.matched", out.size)


def _observe_mlp(tracer, args, kwargs, out):
    requests = args[0]
    tracer.add("pam_steep.requested_files", int(np.count_nonzero(requests)))
    tracer.add("pam_steep.scanned_files", len(requests))
    tracer.add("pam_steep.unmatched_requests", out.unmatched_requests)


def _observe_plan(tracer, args, kwargs, plan):
    tracer.counters["hcm.chi"] = max(tracer.counters["hcm.chi"], plan.chi)


def _observe_verify(tracer, args, kwargs, report):
    tracer.add("verification.checks_passed", sum(c.status == "PASS" for c in report.checks))
    tracer.add("verification.checks_skipped", sum(c.status == "SKIPPED" for c in report.checks))


def _observe_regimes(tracer, args, kwargs, cells):
    tracer.add("regimes.cells", len(cells))


# (module, attribute, span name, trial id from the arguments, observer)
WRAPS = (
    ("montecarlo", "run_trials", "montecarlo.run_trials", None, None),
    ("montecarlo", "build_catalog", "popularity.build_catalog", None, None),
    ("verification", "build_catalog", "popularity.build_catalog", None, None),
    ("popularity", "build_catalog", "popularity.build_catalog", None, None),
    ("montecarlo", "sample_profile", "traffic.sample_profile", _trial_arg, _observe_profile),
    ("traffic", "stream", "traffic.stream", None, None),
    ("montecarlo", "stream", "traffic.stream", None, None),
    ("montecarlo", "pcd_simulate", "pcd.simulate", None, None),
    ("montecarlo", "hcm_simulate", "hcm.simulate", None, None),
    ("montecarlo", "build_color_plan", "hcm.plan", None, _observe_plan),
    ("verification", "build_color_plan", "hcm.plan", None, _observe_plan),
    ("montecarlo", "proportional_placement", "pam_shallow.placement", None, None),
    ("montecarlo", "pam_shallow_serve", "pam_shallow.serve", None, _observe_serve),
    ("pam_shallow", "max_matching", "matching.max_matching", None, _observe_matching),
    ("montecarlo", "build_knapsack", "pam_steep.knapsack", None, None),
    ("pam_steep", "build_knapsack", "pam_steep.knapsack", None, None),
    ("montecarlo", "solve_fractional_knapsack", "pam_steep.solve", None, None),
    ("pam_steep", "solve_fractional_knapsack", "pam_steep.solve", None, None),
    ("montecarlo", "pam_steep_serve", "pam_steep.serve", None, None),
    ("pam_steep", "mlp_match", "pam_steep.mlp_match", None, _observe_mlp),
    ("pcd", "coded_delivery_rate", "delivery.coded_delivery_rate", None, None),
    ("hcm", "coded_delivery_rate", "delivery.coded_delivery_rate", None, None),
    ("cli", "run_experiment", "montecarlo.run_experiment", None, None),
    ("cli", "verify_config", "verification.verify_config", None, _observe_verify),
    ("cli", "regime_map", "regimes.regime_map", None, _observe_regimes),
)


class Tracer:
    """In-memory spans [name, trial, start, end, parent index] and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._trial = -1

    def add(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; nested spans become its children."""
        index = len(self.spans)
        self.spans.append([name, self._trial, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, trial_of=None, observe=None):
        def wrapper(*args, **kwargs):
            if trial_of is not None:
                self._trial = trial_of(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper in WRAPS; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, trial_of, observe in WRAPS:
                module = importlib.import_module(f"cachematch.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, trial_of, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,trial,start_us,end_us,parent\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, trial, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{trial},{(start - t0) * 1e6:.3f},"
                         f"{(end - t0) * 1e6:.3f},{parent}\n")


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of `passes` traced passes."""
    spans = tracer.spans
    durations: defaultdict[str, list[float]] = defaultdict(list)
    children_of: defaultdict[int, list[int]] = defaultdict(list)
    for i, (name, _, start, end, parent) in enumerate(spans):
        durations[name].append(end - start)
        if parent >= 0:
            children_of[parent].append(i)

    def mean_us(name):
        d = durations.get(name, [])
        return 1e6 * sum(d) / len(d) if d else 0.0

    def child_sum_per_parent(parent_name, child_name):
        parents = [i for i, s in enumerate(spans) if s[0] == parent_name]
        total = sum(spans[j][3] - spans[j][2]
                    for i in parents for j in children_of[i] if spans[j][0] == child_name)
        return total, len(parents)

    c = tracer.counters
    trials = len(durations.get("traffic.sample_profile", []))

    def per(value, count):
        return value / count if count else 0.0

    # trial time per scheme: its sample_profile start to its scheme call's end,
    # both direct children of one run_trials chunk
    trial_us: defaultdict[str, list[float]] = defaultdict(list)
    chunk_setup_us = []
    for i, s in enumerate(spans):
        if s[0] != "montecarlo.run_trials":
            continue
        started = None
        first = None
        for j in children_of[i]:
            name, _, start, end, _ = spans[j]
            if name == "traffic.sample_profile":
                started = start
                first = start if first is None else first
            elif name in SCHEME_SPANS and started is not None:
                trial_us[SCHEME_SPANS[name]].append(1e6 * (end - started))
        if first is not None:
            chunk_setup_us.append(1e6 * (first - s[2]))

    serve_hk, serves = child_sum_per_parent("pam_shallow.serve", "matching.max_matching")
    serve_total = sum(durations.get("pam_shallow.serve", []))
    steep_mlp, steep_serves = child_sum_per_parent("pam_steep.serve", "pam_steep.mlp_match")
    knapsack = sum(durations.get("pam_steep.knapsack", [])) + sum(durations.get("pam_steep.solve", []))
    solves = len(durations.get("pam_steep.solve", []))
    cells = c["regimes.cells"]

    m = {
        "traffic.sample_profile_us": (mean_us("traffic.sample_profile"), "us"),
        "traffic.stream_us": (mean_us("traffic.stream"), "us"),
        "traffic.cells_per_trial": (per(c["traffic.cells"], trials), "count"),
        "traffic.requests_per_trial": (per(c["traffic.requests"], trials), "count"),
        "traffic.useful_cell_frac": (per(c["traffic.useful_cells"], c["traffic.cells"]), "fraction"),
        "pcd.simulate_us": (mean_us("pcd.simulate"), "us"),
        "hcm.simulate_us": (mean_us("hcm.simulate"), "us"),
        "hcm.plan_us": (mean_us("hcm.plan"), "us"),
        "hcm.chi": (c["hcm.chi"], "count"),
        "pam_shallow.placement_us": (mean_us("pam_shallow.placement"), "us"),
        "pam_shallow.serve_self_us": (1e6 * per(serve_total - serve_hk, serves), "us"),
        "pam_shallow.evicted_requests_per_trial": (per(c["pam_shallow.evicted_requests"], serves), "count"),
        "pam_shallow.feasible_trial_frac": (per(c["pam_shallow.feasible_trials"], serves), "fraction"),
        "matching.max_matching_us": (1e6 * per(serve_hk, serves), "us"),
        "matching.left_vertices_per_trial": (per(c["matching.left_vertices"], serves), "count"),
        "matching.matched_frac": (per(c["matching.matched"], c["matching.left_vertices"]), "fraction"),
        "pam_steep.placement_us": (1e6 * per(knapsack, solves), "us"),
        "pam_steep.mlp_match_us": (1e6 * per(steep_mlp, steep_serves), "us"),
        "pam_steep.requested_file_frac": (
            per(c["pam_steep.requested_files"], c["pam_steep.scanned_files"]), "fraction"),
        "pam_steep.unmatched_requests_per_trial": (
            per(c["pam_steep.unmatched_requests"], steep_serves), "count"),
        "delivery.coded_delivery_rate_us": (mean_us("delivery.coded_delivery_rate"), "us"),
        "delivery.calls_per_trial": (per(len(durations.get("delivery.coded_delivery_rate", [])), trials), "count"),
        "montecarlo.chunk_setup_us": (statistics.fmean(chunk_setup_us) if chunk_setup_us else 0.0, "us"),
        "verification.verify_config_s": (mean_us("verification.verify_config") / 1e6, "s"),
        "verification.checks_passed": (per(c["verification.checks_passed"], passes), "count"),
        "verification.checks_skipped": (per(c["verification.checks_skipped"], passes), "count"),
        "regimes.regime_map_us_per_cell": (1e6 * per(sum(durations.get("regimes.regime_map", [])), cells), "us"),
        "popularity.build_catalog_us": (mean_us("popularity.build_catalog"), "us"),
        "popularity.build_catalog_calls": (per(len(durations.get("popularity.build_catalog", [])), passes), "count"),
    }
    for scheme in ("pcd", "hcm", "pam-shallow", "pam-steep"):
        m[f"montecarlo.trial_us.p50.{scheme}"] = (_percentile(trial_us[scheme], 50), "us")
        m[f"montecarlo.trial_us.p99.{scheme}"] = (_percentile(trial_us[scheme], 99), "us")
    m["montecarlo.traced_trials"] = (float(trials), "count")
    return m
