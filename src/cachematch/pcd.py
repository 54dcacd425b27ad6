"""Cluster-destination scheme: demand-oblivious matching, global coded delivery.

Every cache stores the same symmetric placement.  After requests arrive, each
cluster fills its d caches with the first d requests in file-index order (the
matching ignores demands, so any fixed rule is equivalent in distribution);
requests beyond d per cluster stay unmatched and are unicast.  One coded
delivery round then serves all matched users across all K caches.

For steep popularity (beta > 1) only the most popular floor((K*M)^(1/beta))
files enter the placement; requests for the remaining files are unicast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .delivery import coded_delivery_rate
from .errors import DomainError
from .mathkit import SQRT_TWO_PI
from .traffic import RequestProfile, first_in_file_order


@dataclass(frozen=True)
class PcdRate:
    """A rate split into its coded-delivery and unmatched terms; hcm reports one too."""

    coded_term: float
    unmatched_term: float
    total: float


def unmatched_tail_term(K: float, t: float) -> float:
    """Expected-unmatched envelope K^(-t) / sqrt(2*pi)."""
    return K ** (-t) / SQRT_TWO_PI


def cluster_unmatched_bound(config: SystemConfig) -> float:
    """Tighter unmatched bound (K/d) * (1/sqrt(2*pi)) * d * (rho*e^(1-rho))^d."""
    rho, d = config.rho, config.d
    return config.K * (rho * math.exp(1.0 - rho)) ** d / SQRT_TWO_PI


def rate_shallow_formula(K: float, N: float, M: float, rho: float, t0: float) -> PcdRate:
    """min{rho*K, [N/M - 1]^+ + K^(-t0)/sqrt(2*pi)} with real-valued inputs."""
    unmatched = unmatched_tail_term(K, t0)
    if M == 0:
        return PcdRate(math.inf, unmatched, rho * K)
    coded = max(N / M - 1.0, 0.0)
    return PcdRate(coded, unmatched, min(rho * K, coded + unmatched))


def pcd_rate_shallow(config: SystemConfig) -> PcdRate:
    if not 0 <= config.beta < 1:
        raise DomainError("shallow rate requires beta in [0, 1)")
    return rate_shallow_formula(config.K, config.N, config.M, config.rho, config.t0)


def rate_steep_formula(
    K: float, N: float, M: float, rho: float, beta: float, t0: float
) -> PcdRate:
    """Piecewise steep-popularity rate; min with the rho*K unicast fallback."""
    unmatched = unmatched_tail_term(K, t0)
    if M < 1:
        coded = K ** (1.0 / beta)
        return PcdRate(coded, 0.0, min(rho * K, coded))
    if M < N**beta / K:
        coded = max((K * M) ** (1.0 / beta) / M - 1.0, 0.0)
    else:
        coded = max(N / M - 1.0, 0.0)
    return PcdRate(coded, unmatched, min(rho * K, coded + unmatched))


def pcd_rate_steep(config: SystemConfig) -> PcdRate:
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


def pcd_simulate(profile: RequestProfile, config: SystemConfig) -> PcdRate:
    """One-trial empirical rate decomposition."""
    K, d, M = config.K, config.d, config.M
    pool = coded_pool_size(config)

    # requests ranked in file-index order; the first d per cluster are matched
    matched = first_in_file_order(profile.files, profile.cluster_totals(), d)
    unmatched_users = profile.total_users - matched.size

    if pool > 0:
        distinct_matched = len(set(matched[matched < pool].tolist()))
        coded = coded_delivery_rate(K, M, pool, distinct_matched)
    else:
        coded = 0.0
    # matched users demanding files outside the pool gain nothing from caches
    overflow_unicasts = int(np.count_nonzero(matched >= pool))

    coded_term = coded + overflow_unicasts
    total = min(coded_term + unmatched_users, float(profile.total_users))
    return PcdRate(coded_term, float(unmatched_users), float(total))
