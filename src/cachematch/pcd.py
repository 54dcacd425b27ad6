"""Cluster-destination scheme: demand-oblivious matching, global coded delivery.

Every cache stores the same symmetric placement.  After requests arrive, each
cluster fills its d caches with the first d requests in file-index order (the
matching ignores demands, so any fixed rule is equivalent in distribution);
requests beyond d per cluster stay unmatched and are unicast.  One coded
delivery round then serves all matched users across all K caches.

For steep popularity (beta > 1) only the most popular floor((K*M)^(1/beta))
files enter the placement; requests for the remaining files are unicast.

A block of trials is accounted in a few vector operations over its sorted
request list, whose clusters are (trial, cluster) pairs.  When no cluster
holds more than d requests, which is almost every trial, all requests are
matched and no rank is computed; otherwise a rank mask keeps the first d of
each cluster.  One compare splits the matched files into pool and overflow,
one sort of trial-keyed pool files counts each trial's distinct pool files,
and the trials' coded rates are gathered from the rate table of (K, M, pool).
"""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig
from .delivery import coded_delivery_rate, coded_rates
from .errors import DomainError
from .mathkit import SQRT_TWO_PI, power_or_inf
from .traffic import RequestProfile, distinct_counts, group_counts, within_caps


def unmatched_tail_term(K: float, t: float) -> float:
    """Expected-unmatched envelope K^(-t) / sqrt(2*pi)."""
    return K ** (-t) / SQRT_TWO_PI


def cluster_unmatched_bound(config: SystemConfig) -> float:
    """Tighter unmatched bound (K/d) * (1/sqrt(2*pi)) * d * (rho*e^(1-rho))^d."""
    rho, d = config.rho, config.d
    return config.K * (rho * math.exp(1.0 - rho)) ** d / SQRT_TWO_PI


def rate_shallow_formula(K: float, N: float, M: float, rho: float, t0: float) -> float:
    """min{rho*K, [N/M - 1]^+ + K^(-t0)/sqrt(2*pi)} with real-valued inputs."""
    if M == 0:
        return rho * K
    return min(rho * K, max(N / M - 1.0, 0.0) + unmatched_tail_term(K, t0))


def pcd_rate_shallow(config: SystemConfig) -> float:
    if not 0 <= config.beta < 1:
        raise DomainError("shallow rate requires beta in [0, 1)")
    return rate_shallow_formula(config.K, config.N, config.M, config.rho, config.t0)


def rate_steep_formula(
    K: float, N: float, M: float, rho: float, beta: float, t0: float
) -> float:
    """Piecewise steep-popularity rate; min with the rho*K unicast fallback."""
    if M < 1:
        return min(rho * K, K ** (1.0 / beta))
    if M < power_or_inf(N, beta) / K:
        coded = max((K * M) ** (1.0 / beta) / M - 1.0, 0.0)
    else:
        coded = max(N / M - 1.0, 0.0)
    return min(rho * K, coded + unmatched_tail_term(K, t0))


def pcd_rate_steep(config: SystemConfig) -> float:
    if config.beta <= 1:
        raise DomainError("steep rate requires beta > 1")
    return rate_steep_formula(
        config.K, config.N, config.M, config.rho, config.beta, config.t0
    )


def coded_pool_size(config: SystemConfig) -> int:
    """Number of most-popular files entering the coded placement."""
    if config.beta < 1:
        return config.N
    if config.M < 1:
        return 0
    return min(config.N, int(math.floor((config.K * config.M) ** (1.0 / config.beta))))


def pcd_simulate(block: RequestProfile, config: SystemConfig) -> np.ndarray:
    """Rows (total, coded term, unmatched users) of the block's trials."""
    pool = coded_pool_size(config)
    users = block.trial_totals()
    sizes = block.cluster_totals()
    keep = within_caps(sizes, config.d)  # slice(None) when every request matches
    files = block.files[keep]
    matched = users if isinstance(keep, slice) else group_counts(keep, users)
    pooled = matched
    # matched users demanding files outside the pool gain nothing from caches
    if pool < config.N:
        in_pool = files < pool
        files, pooled = files[in_pool], group_counts(in_pool, matched)

    coded = 0.0
    if pool > 0:
        keys = np.arange(0, users.size * pool, pool).repeat(pooled) + files
        coded = coded_rates(distinct_counts(keys, pooled), config.K, config.M, pool,
                            coded_delivery_rate)
    rows = np.empty((users.size, 3))
    np.add(coded, matched - pooled, out=rows[:, 1])
    np.subtract(users, matched, out=rows[:, 2])
    np.add(rows[:, 1], rows[:, 2], out=rows[:, 0])
    np.minimum(rows[:, 0], users, out=rows[:, 0])
    return rows
