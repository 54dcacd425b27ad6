"""Information-theoretic lower bounds on the optimal expected rate.

The cut-set argument watches s clusters over back-to-back request instances:
with probability bounded via the distinct-files tail, the requests cover a
constant fraction 1 - e^(-1)/2 of the catalog, which prices the server link.
Shallow Zipf reduces to the uniform case at intensity (1 - beta) * rho.
"""

from __future__ import annotations

import math

from .config import SystemConfig
from .errors import DomainError
from .mathkit import bernoulli_kl
from .pcd import pcd_rate_shallow

DISTINCT_FRACTION = 1.0 - math.exp(-1.0) / 2.0  # 1 - e^(-1)/2


def _per_cluster_cutset(rho: float, d: float, N: float, M: float, s: int) -> float:
    slack = DISTINCT_FRACTION - s * d * M / N
    return max(0.0, 0.25 * rho * s * d * slack)


def shallow_lower_bound(config: SystemConfig) -> float:
    """Closed form ((1-beta)*rho*a/48) * min{a*N/M - d, K}, a = 1 - e^(-1)/2."""
    if not 0 <= config.beta < 1:
        raise DomainError("shallow bound requires beta in [0, 1)")
    if config.N < 10:
        raise DomainError("shallow bound is proved for N >= 10")
    a = DISTINCT_FRACTION
    inner = a * config.N / config.M - config.d if config.M > 0 else math.inf
    scale = (1.0 - config.beta) * config.rho * a / 48.0
    return scale * max(0.0, min(inner, float(config.K)))


def gap_constant(config: SystemConfig) -> float:
    """C = 96 / ((1 - beta) * rho * (1 - e^(-1)/2)^2)."""
    if not 0 <= config.beta < 1:
        raise DomainError("gap constant requires beta in [0, 1)")
    return 96.0 / ((1.0 - config.beta) * config.rho * DISTINCT_FRACTION**2)


def optimality_gap(config: SystemConfig) -> float:
    """Ratio of the replication-free scheme's rate to the lower bound; <= C."""
    a = DISTINCT_FRACTION
    if config.M >= a * config.N / (2.0 * config.d):
        raise DomainError("gap guarantee needs M < (1 - e^(-1)/2) * N / (2*d)")
    achievable = pcd_rate_shallow(config)
    return achievable / shallow_lower_bound(config)


def distinct_files_tail_bound(N: int, eps: float) -> float:
    """Chernoff-KL bound exp(-N * D(e^(-1)+eps || e^(-1))) on missing coverage."""
    if eps <= 0 or math.exp(-1.0) + eps >= 1:
        raise DomainError("need eps > 0 with e^(-1) + eps < 1")
    return math.exp(-N * bernoulli_kl(math.exp(-1.0) + eps, math.exp(-1.0)))


def cutset_bounds(config: SystemConfig) -> tuple[float, ...]:
    """The cut-set bound for each s = 1..K/d watched clusters."""
    if not 0 <= config.beta < 1:
        raise DomainError("lower-bound report requires beta in [0, 1)")
    if config.N < 10:
        raise DomainError("cut-set bounds are proved for N >= 10")
    rho_eff = (1.0 - config.beta) * config.rho  # uniform reduction
    return tuple(
        _per_cluster_cutset(rho_eff, config.d, config.N, config.M, s)
        for s in range(1, config.num_clusters + 1)
    )
