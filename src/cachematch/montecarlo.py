"""Monte Carlo experiment driver.

Every trial is keyed by its absolute index through the counter-based request
stream, so a run is reproducible and independent of how trials are split
across worker processes: serial and parallel runs of the same spec produce
byte-identical reports.

One loop, blocks, asks sample_profile for each block of trials, at most as
many as span BLOCK_CACHES caches, ending early at traffic.BLOCK_REQUESTS
requests or at the edge of a block the memo holds.  run_trials scores each
in one scheme call, and verification's structural checks walk the same
blocks.  Every kernel computes each trial's row with the operations, in the
order, of that trial scored alone, so rows do not depend on the blocking.

A parallel run does its first blocks in the calling process, until
HEAD_BUDGET_S seconds after prepare, so a short run starts no pool.  The
deadline is checked between blocks, so the head overshoots its budget by up
to one block.  A long run pays one prepare (none when `prepared` holds its
key), the budget and one block before the trials left, two or more, go to
one worker pool per process, started on first use and replaced only to grow,
with at most one worker per trial and per CPU.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from functools import lru_cache
from time import perf_counter
from typing import Any

import numpy as np

from .config import SystemConfig, config_payload, validate
from .errors import DomainError, IncompatibleScheme
from .hcm import build_color_plan, check_slack, hcm_rate, hcm_simulate
from .pam_shallow import pam_shallow_rate, pam_shallow_serve, proportional_placement
from .pam_steep import build_knapsack, pam_steep_serve, solve_fractional_knapsack, steep_order_value
from .pcd import pcd_rate_shallow, pcd_rate_steep, pcd_simulate
from .popularity import ZipfCatalog, build_catalog
from .traffic import RequestProfile, matching_streams, sample_profile
from .traffic import stream  # not called here; perfbench/spans.py still wraps montecarlo.stream

PCD_SCHEME = "pcd"
PAM_SHALLOW_SCHEME = "pam-shallow"
PAM_STEEP_SCHEME = "pam-steep"
HCM_SCHEME = "hcm"

HEAD_BUDGET_S = 0.01  # in-process time a parallel run spends before it fans out
# Caches a scoring block's trials may span, unless one trial spans more:
# pam-shallow keeps one load per cache of the block, so its load array stays
# within 1 MB however few requests a trial holds, where a block of
# BLOCK_REQUESTS requests of trials at small rho spans thousands of K.
BLOCK_CACHES = 1 << 17


@dataclass(frozen=True)
class Scheme:
    """Everything the trial loop, the CLI and the checks need to know about one scheme.

    check(config) raises IncompatibleScheme when the scheme does not apply.
    analytic(config, t) is the expected-rate reference at slack t.  For
    pam-steep it is an order-of-magnitude envelope with untracked constants,
    so its bound_satisfied is indicative only.  pcd's steep rate (beta > 1)
    is no upper bound either: the simulator unicasts each matched user
    outside the coded pool, which the rate undercounts at M < 1 and large K.
    For the rest it is an expected-rate upper bound.  prepare(config,
    catalog, t) builds the state every trial at (config, t) shares: nothing
    for pcd, the placement for the two replication schemes, the color plan
    for hcm.  It builds anew on every call; the trial loop and the checks
    take the state from `prepared`.

    trials(block, state, seed, trials) scores a block, at the config it
    carries: the consecutive trials in range `trials`, whose clusters are
    (trial, cluster) pairs, as sample_profile draws them.  It gives one row
    (rate, coded, unmatched) per trial, each equal to what that trial gives
    scored alone.  The last two columns mean different things:
    - pcd, hcm: the coded term and the unmatched users; rate is their sum,
      clamped at the user count
    - pam-shallow: 0 and 0, as every request that survives eviction matches
    - pam-steep: 0 and the unmatched requests, from traffic.matching_streams

    Callees are looked up in this module at call time, so a wrapper put on
    montecarlo.<name> sees every call: one trial callee per block, and the
    prepare callees once per miss of `prepared`.  The pool pickles
    run_trials by name, so a parallel run refuses a wrapper on run_trials.
    """

    name: str
    check: Callable[[SystemConfig], None]
    analytic: Callable[[SystemConfig, float], float]
    prepare: Callable[[SystemConfig, ZipfCatalog, float], Any]
    trials: Callable[[RequestProfile, Any, int, range], np.ndarray]


def _shallow_only(name: str) -> Callable[[SystemConfig], None]:
    def check(config: SystemConfig) -> None:
        if not 0 <= config.beta < 1:
            raise IncompatibleScheme(f"{name} requires beta in [0, 1), got {config.beta}")

    return check


def _steep_only(config: SystemConfig) -> None:
    if config.beta <= 1:
        raise IncompatibleScheme(f"{PAM_STEEP_SCHEME} requires beta > 1, got {config.beta}")
    if config.d < 2:
        raise IncompatibleScheme(f"{PAM_STEEP_SCHEME} requires d >= 2, got {config.d}")


def _pam_shallow_trials(block, placement, seed, trials):
    rows = np.zeros((len(trials), 3))
    rows[:, 0] = pam_shallow_serve(block, placement).rates
    return rows


def _pam_steep_trials(block, placement, seed, trials):
    out = pam_steep_serve(block, placement, matching_streams(seed, trials))
    rows = np.zeros((len(trials), 3))
    rows[:, 0], rows[:, 2] = out.rates, out.unmatched_requests
    return rows


class _SchemeTable(dict):
    """Scheme by name; an unknown name raises IncompatibleScheme."""

    def __missing__(self, name):
        raise IncompatibleScheme(f"unknown scheme {name!r}")


SCHEMES: dict[str, Scheme] = _SchemeTable((s.name, s) for s in (
    Scheme(
        PCD_SCHEME,
        lambda config: None,  # applies at every beta
        lambda config, t: pcd_rate_shallow(config) if config.beta < 1 else pcd_rate_steep(config),
        lambda config, catalog, t: None,
        lambda block, state, seed, trials: pcd_simulate(block),
    ),
    Scheme(
        PAM_SHALLOW_SCHEME,
        _shallow_only(PAM_SHALLOW_SCHEME),
        lambda config, t: pam_shallow_rate(config),
        lambda config, catalog, t: proportional_placement(config, catalog),
        _pam_shallow_trials,
    ),
    Scheme(
        PAM_STEEP_SCHEME,
        _steep_only,
        lambda config, t: steep_order_value(config),
        lambda config, catalog, t: solve_fractional_knapsack(build_knapsack(config, catalog)),
        _pam_steep_trials,
    ),
    Scheme(
        HCM_SCHEME,
        _shallow_only(HCM_SCHEME),
        hcm_rate,
        lambda config, catalog, t: build_color_plan(config, catalog, t),
        lambda block, plan, seed, trials: hcm_simulate(block, plan),
    ),
))


@lru_cache(maxsize=4)
def prepared(scheme: str, config: SystemConfig, slack: float) -> Any:
    """SCHEMES[scheme].prepare at (config, slack), built once per process
    while held, as placement happens before any request; an exception, such
    as InsufficientMemory, is raised anew on every call.  A pool worker
    inherits the entries held when it is forked.

    Four entries, as build_catalog keeps: runs that share a key come one after
    another.  An entry holds nothing for pcd, 8 B per file for an hcm plan,
    and for a placement a few words per file and one per copy placed: 25-30 B
    per file at the benchmark's configs, 1.5 MiB for pam-steep at K = N = 2^16,
    under the about 40 B per file of a catalog.  Entries are shared, so they
    stay read-only.
    """
    return SCHEMES[scheme].prepare(config, build_catalog(config.N, config.beta), slack)


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    scheme: str
    trials: int
    seed: int
    t_param: float | None = None  # hierarchical slack; defaults to config.t0

    @property
    def slack(self) -> float:
        return self.config.t0 if self.t_param is None else self.t_param


@dataclass(frozen=True)
class RateReport:
    scheme: str
    trials: int
    seed: int
    mean_rate: float
    stderr: float
    coded_mean: float
    unmatched_mean: float
    analytic_rate: float
    bound_satisfied: bool  # mean_rate <= analytic_rate + 3 * stderr

    def to_json(self, config: SystemConfig) -> str:
        payload = {**asdict(self), "config": config_payload(config)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def blocks(config: SystemConfig, seed: int, start: int, stop: int,
           deadline: float | None = None) -> Iterator[tuple[range, RequestProfile]]:
    """(trials, block) of each block of trials start..stop-1, in order; it ends
    at the first block begun past the deadline, unless one trial is left."""
    most = max(1, BLOCK_CACHES // config.K)  # trials per block
    while start < stop:
        if deadline is not None and stop - start > 1 and perf_counter() >= deadline:
            return
        block = sample_profile(config, seed, trial=start, stop=min(stop, start + most))
        yield range(start, start + block.trials), block
        start += block.trials


def run_trials(spec: ExperimentSpec, start: int, count: int, budget: float | None = None) -> np.ndarray:
    """Rows (rate, coded, unmatched) for trials start..start+count-1, scored
    a block at a time; with a budget, it stops at the first block begun
    `budget` seconds after prepare, unless fewer than two trials are left."""
    config = spec.config
    scheme = SCHEMES[spec.scheme]
    state = prepared(spec.scheme, config, spec.slack)
    deadline = None if budget is None else perf_counter() + budget
    rows = np.empty((count, 3), dtype=np.float64)
    done = 0
    for trials, block in blocks(config, spec.seed, start, start + count, deadline):
        done = trials.stop - start
        rows[trials.start - start:done] = scheme.trials(block, state, spec.seed, trials)
    return rows[:done]


def plan_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) of each worker's chunk, in trial order; at most
    min(trials, workers, os.cpu_count()) chunks."""
    workers = min(workers, trials, os.cpu_count() or 1)
    size = math.ceil(trials / workers)
    return [(start, min(size, trials - start)) for start in range(0, trials, size)]


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide pool, replaced only when it has fewer than `workers`."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def collect_trials(spec: ExperimentSpec, workers: int = 1) -> np.ndarray:
    """All per-trial rows in trial order, regardless of worker count: those of
    the in-process head, then those of the pool's chunks for the trials left."""
    if spec.trials < 1:
        raise IncompatibleScheme(f"trials must be >= 1, got {spec.trials}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    validate(spec.config)
    SCHEMES[spec.scheme].check(spec.config)
    check_slack(spec.config, spec.slack)  # every scheme, though only hcm reads it
    budget = None if workers == 1 or len(plan_chunks(spec.trials, workers)) == 1 else HEAD_BUDGET_S
    head = run_trials(spec, 0, spec.trials, budget)
    done = len(head)
    if done == spec.trials:
        return head
    chunks = plan_chunks(spec.trials - done, workers)  # two or more, as two or more trials are left
    pool = _worker_pool(len(chunks))
    try:
        parts = list(pool.map(run_trials, [spec] * len(chunks), [done + s for s, _ in chunks], [c for _, c in chunks]))
    except BrokenProcessPool:
        _drop_pool()  # the next call starts a fresh pool
        raise
    return np.concatenate([head, *parts], axis=0)


def column_mean(values: np.ndarray) -> float:
    """values.mean() of float64 values, by the same sum and division."""
    return float(np.add.reduce(values) / len(values))


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of float64 values and its standard error; the error is 0
    for one value.  The steps of values.mean() and values.std(ddof=1) /
    sqrt(n), so the bits are the same, without their dispatch, which takes
    about 14 us on 8 values (numpy 2.4, 2-core machine)."""
    n = len(values)
    mean = column_mean(values)
    if n < 2:
        return mean, 0.0
    dev = values - mean
    np.multiply(dev, dev, out=dev)
    return mean, math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)


def summarize(spec: ExperimentSpec, rows: np.ndarray) -> RateReport:
    """The report of `spec` from its per-trial rows, as collect_trials gives them."""
    mean, stderr = mean_and_stderr(rows[:, 0])
    analytic = SCHEMES[spec.scheme].analytic(spec.config, spec.slack)
    return RateReport(
        scheme=spec.scheme,
        trials=spec.trials,
        seed=spec.seed,
        mean_rate=mean,
        stderr=stderr,
        coded_mean=column_mean(rows[:, 1]),
        unmatched_mean=column_mean(rows[:, 2]),
        analytic_rate=analytic,
        bound_satisfied=bool(mean <= analytic + 3.0 * stderr),
    )


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> RateReport:
    return summarize(spec, collect_trials(spec, workers))
