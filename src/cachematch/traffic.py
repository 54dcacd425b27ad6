"""Poisson request profiles on counter-based random streams.

Streams are keyed by (seed, trial) through the Philox counter-based generator,
so any trial's profile can be regenerated in isolation: results do not depend
on iteration order or on how trials are sheared across workers.  Role 0 of a
stream draws the request profile; role 1 feeds any randomized matcher run on
the same trial.

Profiles are drawn by Poisson splitting and store only their requests, so
memory per trial grows with the number of requests, not with N * K/d.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .popularity import ZipfCatalog

SAMPLER_VERSION = 3  # bumped whenever the same seed starts giving other draws

PROFILE_ROLE = 0
MATCHING_ROLE = 1


def stream(seed: int, trial: int, role: int = PROFILE_ROLE) -> np.random.Generator:
    """Independent generator for (seed, trial, role); same inputs, same draws."""
    if not (0 <= seed < 1 << 64 and 0 <= trial < 1 << 64):
        raise DomainError(f"seed {seed} and trial {trial} must lie in [0, 2**64)")
    key = np.array([operator.index(seed), operator.index(trial)], dtype=np.uint64)
    # counter word 2 = role: the state Philox.jumped(role) reaches, built directly
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, role, 0]))


@dataclass(frozen=True)
class RequestProfile:
    """Cluster c asked for files[offsets[c]:offsets[c + 1]], 0-indexed ids, sorted."""

    offsets: np.ndarray  # shape (num_clusters + 1,), int64, starts at 0
    files: np.ndarray  # shape (total requests,), int64
    config: SystemConfig

    @classmethod
    def from_counts(cls, counts, config: SystemConfig) -> RequestProfile:
        """Profile with u[n, c] requests for file n in cluster c."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (config.N, config.num_clusters):
            raise DomainError(f"counts shape {counts.shape} != (N, K/d)")
        files = np.repeat(np.tile(np.arange(config.N), config.num_clusters), counts.T.ravel())
        return cls(np.concatenate(([0], np.cumsum(counts.sum(axis=0)))), files, config)

    def __post_init__(self) -> None:
        self.offsets.setflags(write=False)
        self.files.setflags(write=False)

    @property
    def total_users(self) -> int:
        return int(self.offsets[-1])

    def cluster_totals(self) -> np.ndarray:
        """Y(c) = total requests per cluster, shape (num_clusters,)."""
        return np.diff(self.offsets)

    def cluster_of_request(self) -> np.ndarray:
        """Cluster index of each entry of files."""
        return np.repeat(np.arange(self.offsets.size - 1), self.cluster_totals())

    @cached_property
    def counts(self) -> np.ndarray:
        """Dense read-only request counts u[n, c], shape (N, num_clusters), int64."""
        N, clusters = self.config.N, self.offsets.size - 1
        flat = self.files * clusters + self.cluster_of_request()
        counts = np.bincount(flat, minlength=N * clusters).astype(np.int64, copy=False)
        counts = counts.reshape(N, clusters)
        counts.setflags(write=False)
        return counts


def sample_profile(
    config: SystemConfig, catalog: ZipfCatalog, seed: int, trial: int = 0
) -> RequestProfile:
    """Draw u[n, c] ~ Poisson(rho * d * p_n), independent across (n, c).

    Poisson splitting: cluster c draws Y_c ~ Poisson(rho * d) requests, each
    for file n with probability p_n, found by inverse-CDF search.
    """
    if catalog.N != config.N:
        raise DomainError(f"catalog size {catalog.N} != config N {config.N}")
    rng = stream(seed, trial, PROFILE_ROLE)
    totals = rng.poisson(config.rho * config.d, size=config.num_clusters)
    # searching cdf[:-1] keeps ids below N even when the cdf ends short of 1
    files = np.searchsorted(catalog.cdf[:-1], rng.random(totals.sum()), side="right")
    # sort within clusters: cluster-major keys never cross cluster blocks
    base = np.repeat(np.arange(config.num_clusters) * config.N, totals)
    keys = np.sort(files + base)
    return RequestProfile(np.concatenate(([0], np.cumsum(totals))), keys - base, config)


def first_in_file_order(files: np.ndarray, sizes: np.ndarray, limit: int) -> np.ndarray:
    """Files of the first `limit` requests of each cluster, for `files` listed
    cluster by cluster, `sizes[c]` of them for cluster c, each block sorted."""
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(files.size) - np.repeat(starts, sizes)
    return files[rank < limit]


def distinct_files(profile: RequestProfile) -> int:
    """Number of files with at least one request."""
    return len(set(profile.files.tolist()))

