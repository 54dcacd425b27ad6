"""System description, structural validation, and config-file loading.

The network is K caches of M files each, partitioned into K/d clusters of d
caches.  Requests for a catalog of N files arrive per cluster as independent
Poisson counts with intensity rho*d*p_n for file n, where p_n is a Zipf(beta)
popularity.  t0 > 0 is the tail-decay slack used by the analytic unmatched-user
terms.

Hard invariants (d | K, N >= K, rho in (0, 1/2), beta != 1, positivity) make a
configuration unusable when broken; the cluster-size floor

    d >= (2*(1 + t0) / alpha) * log K,      alpha = -log(2*rho*e^(1-2*rho))

only marks the analytic formulas as outside their proof regime, so it is
reported as a warning rather than an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError, HardInvariantViolation

CONFIG_KEYS = ("k", "d", "n", "m", "rho", "beta", "t0")


def config_payload(config: SystemConfig) -> dict:
    """The JSON object, keyed by CONFIG_KEYS, that load_config reads back as *config*."""
    values = (config.K, config.d, config.N, config.M, config.rho, config.beta, config.t0)
    return dict(zip(CONFIG_KEYS, values))


@dataclass(frozen=True)
class SystemConfig:
    K: int  # number of caches; d must divide K
    d: int  # cluster size
    N: int  # catalog size; N >= K
    M: float  # per-cache memory, in files
    rho: float  # request intensity per cache slot, 0 < rho < 1/2
    beta: float  # Zipf exponent, beta >= 0 and beta != 1
    t0: float  # tail-decay slack, t0 > 0

    @property
    def num_clusters(self) -> int:
        return self.K // self.d

    @property
    def alpha(self) -> float:
        """alpha = -log(2*rho*e^(1-2*rho)); positive for rho in (0, 1/2)."""
        return -math.log(2.0 * self.rho * math.exp(1.0 - 2.0 * self.rho))

    @property
    def cluster_floor(self) -> float:
        """Smallest d for which the tail bounds are proved at slack t0."""
        return 2.0 * (1.0 + self.t0) / self.alpha * math.log(self.K)

    @property
    def meets_cluster_floor(self) -> bool:
        return self.d >= self.cluster_floor


def validate(config: SystemConfig) -> tuple[str, ...]:
    """Check every structural invariant of *config*.

    Raises HardInvariantViolation, naming each broken hard invariant on
    ``.failed``, when any fails.  Otherwise returns the warning texts: the
    cluster floor's, when d is below it.
    """
    ints_ok = all(isinstance(v, int) for v in (config.K, config.d, config.N))
    positive = ints_ok and config.K >= 1 and config.d >= 1 and config.N >= 1
    hard = {
        "integer_sizes": ints_ok,
        "positive_sizes": positive,
        "memory_nonnegative": isinstance(config.M, (int, float)) and 0 <= config.M < math.inf,
        "cluster_divides": positive and config.K % config.d == 0,
        "catalog_covers_caches": positive and config.N >= config.K,
        # alpha rounds to 0 within ~1e-8 of 1/2
        "intensity_range": 0.0 < config.rho < 0.5 and config.alpha > 0,
        "zipf_exponent": 0 <= config.beta < math.inf and config.beta != 1.0,
        "tail_slack": 0 < config.t0 < math.inf,
    }
    failed = tuple(name for name, passed in hard.items() if not passed)
    if failed:
        raise HardInvariantViolation(f"hard invariant(s) failed: {', '.join(failed)}", failed)
    if config.meets_cluster_floor:
        return ()
    return (
        "d = %d is below the proof floor %.4g; analytic tail bounds are "
        "outside their proven regime" % (config.d, config.cluster_floor),
    )


def load_config(path: str) -> SystemConfig:
    """Build a SystemConfig from a JSON file with keys k, d, n, m, rho, beta, t0."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise HardInvariantViolation(f"{path}: expected a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise HardInvariantViolation(f"{path}: unknown keys {unknown}")
    missing = sorted(set(CONFIG_KEYS) - set(raw))
    if missing:
        raise HardInvariantViolation(f"{path}: missing keys {missing}")
    for key, value in raw.items():  # no coercion: bool is an int, "600" is a string
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise HardInvariantViolation(f"{path}: {key} must be a JSON number, got {value!r}")
        if key in ("k", "d", "n") and isinstance(value, float) and not value.is_integer():
            raise HardInvariantViolation(f"{path}: {key} must be an integer, got {value!r}")
    return SystemConfig(
        K=int(raw["k"]),
        d=int(raw["d"]),
        N=int(raw["n"]),
        M=float(raw["m"]),
        rho=float(raw["rho"]),
        beta=float(raw["beta"]),
        t0=float(raw["t0"]),
    )


@dataclass(frozen=True)
class PolyKPoint:
    """Polynomial scaling point: N = K^nu, d = K^delta, M = K^mu."""

    nu: float
    delta: float
    mu: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu < 1:
            raise DomainError("nu must be finite and >= 1 (catalog at least as large as caches)")
        if not 0 < self.delta <= 1:
            raise DomainError("delta must lie in (0, 1]")
        if not 0 <= self.mu <= 1 or self.mu > self.nu:
            raise DomainError("mu must lie in [0, 1] with mu <= nu")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise DomainError("beta must be finite and >= 0")
