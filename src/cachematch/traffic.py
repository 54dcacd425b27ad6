"""Poisson request profiles on counter-based random streams.

Streams are keyed by (seed, trial) through the Philox counter-based generator,
so any trial's profile can be regenerated in isolation: results do not depend
on iteration order or on how trials are sheared across workers.  The key goes
to Philox as a two-word seed sequence, so building a stream reads no OS
entropy.  Role 0 of a stream draws the request profile; role 1 feeds any
randomized matcher run on the same trial.

Profiles are drawn by Poisson splitting and store only their requests, so
memory per trial grows with the number of requests, not with N * K/d.  A
profile is a pure function of (N, K, d, rho, beta, seed, trial), and each
process keeps the arrays it has drawn, up to a byte budget, so the schemes,
sweep rows and checks that ask for the same numbers share one draw.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .popularity import build_catalog

SAMPLER_VERSION = 3  # bumped whenever the same seed starts giving other draws

PROFILE_ROLE = 0
MATCHING_ROLE = 1


def stream(seed: int, trial: int, role: int = PROFILE_ROLE) -> np.random.Generator:
    """Independent generator for (seed, trial, role); same inputs, same draws."""
    if not (0 <= seed < 1 << 64 and 0 <= trial < 1 << 64):
        raise DomainError(f"seed {seed} and trial {trial} must lie in [0, 2**64)")
    key = _philox_key_type()((operator.index(seed), operator.index(trial)))
    # counter word 2 = role: the state Philox.jumped(role) reaches, built directly
    return np.random.Generator(np.random.Philox(key, counter=[0, 0, role, 0]))


@cache
def _philox_key_type() -> type:
    """The seed sequence stream hands Philox: the key as two uint64 words, any
    other request refused, where Philox(key=...) draws OS entropy and discards
    it.  Made on first use, as importing numpy.random takes about 17 ms."""

    class PhiloxKey(tuple, np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise DomainError(f"a Philox key is 2 uint64 words, not {n_words} {np.dtype(dtype)}")
            return np.array(self, dtype=np.uint64)

    return PhiloxKey


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
        return self.offsets[1:] - self.offsets[:-1]

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


PROFILE_MEMO_BYTES = 4 << 20
# An entry's cost beyond its arrays' data (tuple, array headers, dict slot,
# key): tracemalloc measured 350-390 bytes on numpy 2.4, CPython 3.11.
# Charging it keeps profiles of a few requests from piling up past the budget.
PROFILE_MEMO_ENTRY_BYTES = 512


class _ProfileMemo:
    """The (offsets, files) arrays drawn for one (N, K, d, rho, beta, seed),
    by trial.  Not locked: trials run in worker processes, never in threads."""

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.charged = 0  # bytes, entry overhead included

    def get(self, key: tuple, trial: int) -> tuple[np.ndarray, np.ndarray] | None:
        if key != self.key:
            self.key, self.entries, self.charged = key, {}, 0
        return self.entries.get(trial)

    def put(self, trial: int, arrays: tuple[np.ndarray, np.ndarray]) -> None:
        cost = arrays[0].nbytes + arrays[1].nbytes + PROFILE_MEMO_ENTRY_BYTES
        if self.charged + cost <= PROFILE_MEMO_BYTES:
            self.entries[trial] = arrays
            self.charged += cost


_memo = _ProfileMemo()


def sample_profile(config: SystemConfig, seed: int, trial: int = 0) -> RequestProfile:
    """Draw u[n, c] ~ Poisson(rho * d * p_n), independent across (n, c).

    Poisson splitting: cluster c draws Y_c ~ Poisson(rho * d) requests, each
    for file n with probability p_n, found by the guide-table inverse-CDF
    lookup of build_catalog(N, beta): one table read and one compare per
    request, and a search only in the few buckets of packed breakpoints.

    The draw is a pure function of the key (N, K, d, rho, beta, seed) and
    the trial, so its read-only arrays are kept in a per-process memo, and a
    repeat call wraps them in a fresh profile that carries the caller's
    config.  The memo is module state because pool workers outlive each
    experiment and must keep profiles from one sweep row to the next.  It
    holds one key at a time, dropping every entry when the key changes, and
    at most PROFILE_MEMO_BYTES: past that, trials are drawn and not kept, so
    memory stays bounded for any trial count.
    """
    key = (config.N, config.K, config.d, config.rho, config.beta, operator.index(seed))
    trial = operator.index(trial)
    arrays = _memo.get(key, trial)
    if arrays is None:
        rng = stream(seed, trial, PROFILE_ROLE)
        clusters = config.num_clusters
        totals = rng.poisson(config.rho * config.d, size=clusters)
        offsets = np.zeros(clusters + 1, dtype=np.int64)
        np.cumsum(totals, out=offsets[1:])
        files = build_catalog(config.N, config.beta).file_ids(rng.random(offsets[-1]))
        # sort within clusters: cluster-major keys never cross cluster blocks
        base = np.repeat(np.arange(0, clusters * config.N, config.N), totals)
        files += base
        files.sort()
        files -= base
        arrays = (offsets, files)
        _memo.put(trial, arrays)
    return RequestProfile(*arrays, config)


def first_in_file_order(files: np.ndarray, sizes: np.ndarray, limit: int | np.ndarray) -> np.ndarray:
    """Files of the first `limit` requests of each block, for `files` listed
    block by block, `sizes[b]` of them in block b, each block sorted.  `limit`
    is one cap for every block or an array of one cap per block; when no
    block exceeds its cap, `files` itself is returned."""
    if (sizes <= limit).all():
        return files
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(files.size) - np.repeat(starts, sizes)
    return files[rank < np.repeat(np.broadcast_to(limit, sizes.shape), sizes)]


def distinct_count(files: np.ndarray) -> int:
    """Number of distinct ids in `files`, a nonnegative integer array."""
    return int(np.count_nonzero(np.bincount(files)))
