"""Monte Carlo experiment driver.

Every trial is keyed by its absolute index through the counter-based request
stream, so a run is reproducible and independent of how trials are split
across worker processes: serial and parallel runs of the same spec produce
byte-identical reports.  Parallel runs share one worker pool per process,
started on first use and replaced only to grow.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, validate
from .errors import DomainError, IncompatibleScheme
from .hcm import build_color_plan, hcm_rate, hcm_simulate
from .pam_shallow import pam_shallow_rate, pam_shallow_serve, proportional_placement
from .pam_steep import build_knapsack, pam_steep_rate, pam_steep_serve, solve_fractional_knapsack
from .pcd import pcd_rate_shallow, pcd_rate_steep, pcd_simulate
from .popularity import build_catalog
from .traffic import MATCHING_ROLE, sample_profile, stream

PCD_SCHEME = "pcd"
PAM_SHALLOW_SCHEME = "pam-shallow"
PAM_STEEP_SCHEME = "pam-steep"
HCM_SCHEME = "hcm"
SCHEMES = (PCD_SCHEME, PAM_SHALLOW_SCHEME, PAM_STEEP_SCHEME, HCM_SCHEME)


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    scheme: str
    trials: int
    seed: int
    t_param: float | None = None  # hierarchical slack; defaults to config.t0


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
        payload = {
            "scheme": self.scheme,
            "trials": self.trials,
            "seed": self.seed,
            "mean_rate": self.mean_rate,
            "stderr": self.stderr,
            "coded_mean": self.coded_mean,
            "unmatched_mean": self.unmatched_mean,
            "analytic_rate": self.analytic_rate,
            "bound_satisfied": self.bound_satisfied,
            "config": {
                "k": config.K,
                "d": config.d,
                "n": config.N,
                "m": config.M,
                "rho": config.rho,
                "beta": config.beta,
                "t0": config.t0,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_compatibility(config: SystemConfig, scheme: str) -> None:
    if scheme not in SCHEMES:
        raise IncompatibleScheme(f"unknown scheme {scheme!r}")
    if scheme in (PAM_SHALLOW_SCHEME, HCM_SCHEME) and not 0 <= config.beta < 1:
        raise IncompatibleScheme(f"{scheme} requires beta in [0, 1), got {config.beta}")
    if scheme == PAM_STEEP_SCHEME:
        if config.beta <= 1:
            raise IncompatibleScheme(f"{scheme} requires beta > 1, got {config.beta}")
        if config.d < 2:
            raise IncompatibleScheme(f"{scheme} requires d >= 2, got {config.d}")


def analytic_rate(spec: ExperimentSpec) -> float:
    """Expected-rate reference for the spec.

    For the steep replication scheme this is an order-of-magnitude envelope
    (untracked constants), so its bound_satisfied is indicative only; the
    other three references are actual expected-rate upper bounds.
    """
    config = spec.config
    if spec.scheme == PCD_SCHEME:
        rate = pcd_rate_shallow(config) if config.beta < 1 else pcd_rate_steep(config)
        return rate.total
    if spec.scheme == PAM_SHALLOW_SCHEME:
        return pam_shallow_rate(config)
    if spec.scheme == PAM_STEEP_SCHEME:
        return pam_steep_rate(config).order_value
    t = config.t0 if spec.t_param is None else spec.t_param
    return hcm_rate(config, t)


def run_trials(spec: ExperimentSpec, start: int, count: int) -> np.ndarray:
    """Rows (rate, coded, unmatched) for trials start..start+count-1."""
    config = spec.config
    catalog = build_catalog(config.N, config.beta)
    rows = np.empty((count, 3), dtype=np.float64)

    if spec.scheme == PCD_SCHEME:
        for i in range(count):
            trial = start + i
            profile = sample_profile(config, catalog, spec.seed, trial)
            r = pcd_simulate(profile, config)
            rows[i] = (r.total, r.coded_term, r.unmatched_term)
    elif spec.scheme == PAM_SHALLOW_SCHEME:
        placement = proportional_placement(config, catalog)
        for i in range(count):
            trial = start + i
            profile = sample_profile(config, catalog, spec.seed, trial)
            out = pam_shallow_serve(profile, placement, config)
            rows[i] = (out.rate, 0.0, float(out.unmatched_survivors))
    elif spec.scheme == PAM_STEEP_SCHEME:
        placement = solve_fractional_knapsack(build_knapsack(config, catalog))
        for i in range(count):
            trial = start + i
            profile = sample_profile(config, catalog, spec.seed, trial)
            rng = stream(spec.seed, trial, MATCHING_ROLE)
            out = pam_steep_serve(profile, placement, rng)
            rows[i] = (out.rate, 0.0, float(out.unmatched_requests))
    else:
        t = config.t0 if spec.t_param is None else spec.t_param
        plan = build_color_plan(config, catalog, t)
        for i in range(count):
            trial = start + i
            profile = sample_profile(config, catalog, spec.seed, trial)
            r = hcm_simulate(profile, plan, config)
            rows[i] = (r.total, r.coded_term, r.unmatched_term)
    return rows


def _run_chunk(args: tuple[ExperimentSpec, int, int]) -> np.ndarray:
    return run_trials(*args)


def plan_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) of each worker's chunk, in trial order; at most
    min(trials, workers) chunks."""
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
    """All per-trial rows in trial order, regardless of worker count."""
    if spec.trials < 1:
        raise IncompatibleScheme(f"trials must be >= 1, got {spec.trials}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    validate(spec.config)
    check_compatibility(spec.config, spec.scheme)
    chunks = plan_chunks(spec.trials, workers)
    if len(chunks) == 1:
        return run_trials(spec, 0, spec.trials)
    pool = _worker_pool(workers)
    try:
        parts = list(pool.map(_run_chunk, [(spec, start, count) for start, count in chunks]))
    except BrokenProcessPool:
        _drop_pool()  # the next call starts a fresh pool
        raise
    return np.concatenate(parts, axis=0)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> RateReport:
    rows = collect_trials(spec, workers)
    rates = rows[:, 0]
    mean = float(rates.mean())
    stderr = 0.0 if spec.trials == 1 else float(rates.std(ddof=1) / math.sqrt(spec.trials))
    analytic = analytic_rate(spec)
    satisfied = bool(mean <= analytic + 3.0 * stderr)
    return RateReport(
        scheme=spec.scheme,
        trials=spec.trials,
        seed=spec.seed,
        mean_rate=mean,
        stderr=stderr,
        coded_mean=float(rows[:, 1].mean()),
        unmatched_mean=float(rows[:, 2].mean()),
        analytic_rate=analytic,
        bound_satisfied=satisfied,
    )
