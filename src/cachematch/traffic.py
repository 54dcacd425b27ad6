"""Poisson request profiles on counter-based random streams.

Streams are keyed by (seed, trial) through the Philox counter-based generator,
so any trial's profile can be regenerated in isolation: results do not depend
on iteration order or on how trials are sheared across workers.  Role 0 of a
stream draws the request profile; role 1 feeds any randomized matcher run on
the same trial.

A counter-based stream is its (key, counter) pair and nothing else (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so one write of
key and counter into Philox's state puts a generator on a stream.  stream
writes it into a fresh generator, built from a fixed seed so that it reads no
OS entropy.  reseat writes it into one generator per process, which the trial
loop moves from trial to trial in place of building a generator per trial.  A
reseated generator is valid until the next reseat; stream builds independent
generators for callers that hold several at once.

Profiles are drawn by Poisson splitting and store only their requests, so
memory per trial grows with the number of requests, not with N * K/d.

Trials are drawn a block at a time, and a block is what the schemes score:
its clusters are (trial, cluster) pairs, its offsets one cumsum over them,
and the kernels count per trial, or per (trial, color), with group_counts and
distinct_counts.  Each trial still draws from its own stream, and writes
its uniforms into one buffer of the block; the file-id lookup, the offsets'
cumsum and the sort within clusters run once per block of up to
BLOCK_REQUESTS requests, so a trial's requests are the same however trials
are blocked.

A block is a pure function of (N, K, d, rho, beta, seed) and its trials, and
each process keeps the blocks it has drawn, up to a byte budget, so the
schemes, sweep rows and checks that ask for the same trials share one draw.
"""

from __future__ import annotations

import bisect
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


def _philox_words(seed: int, trial: int, role: int) -> tuple[list[int], list[int]]:
    """The Philox key and counter words of stream (seed, trial, role): key
    (seed, trial), and counter word 2 = role, the state Philox.jumped(role)
    reaches.  Keys outside [0, 2**64) are refused, not masked."""
    if not (0 <= seed < 1 << 64 and 0 <= trial < 1 << 64):
        raise DomainError(f"seed {seed} and trial {trial} must lie in [0, 2**64)")
    return [operator.index(seed), operator.index(trial)], [0, 0, role, 0]


# every stream's start state but for the key and counter _seat writes: buffer empty
_STATE = {"bit_generator": "Philox", "state": {}, "buffer": [0] * 4, "buffer_pos": 4,
          "has_uint32": 0, "uinteger": 0}


def _seat(generator: np.random.Generator, seed: int, trial: int, role: int) -> np.random.Generator:
    """Move a Philox `generator` to the state stream (seed, trial, role)
    starts in, by writing its key and counter in place.  _STATE is not
    locked: trials run in processes, never in threads."""
    _STATE["state"]["key"], _STATE["state"]["counter"] = _philox_words(seed, trial, role)
    generator.bit_generator.state = _STATE
    return generator


def stream(seed: int, trial: int, role: int = PROFILE_ROLE) -> np.random.Generator:
    """Independent generator for (seed, trial, role); same inputs, same draws.
    For callers that hold several at once, such as a generator per trial of
    a block; the trial loop reseats one instead (reseat).  Its seed_seq is
    seed 0's, the same for every stream: spawn nothing from it."""
    return _seat(np.random.Generator(np.random.Philox(0)), seed, trial, role)


def reseat(seed: int, trial: int, role: int = PROFILE_ROLE) -> np.random.Generator:
    """The process's one reseatable generator, seated where stream(seed,
    trial, role) starts, so it gives the same draws.  It is valid only until
    the next reseat, which moves it again: a caller never holds two at once."""
    return _seat(_reseatable(), seed, trial, role)


@cache
def _reseatable() -> np.random.Generator:
    """The generator reseat moves, made on first use."""
    return stream(0, 0)


@dataclass(frozen=True)
class RequestProfile:
    """Cluster c asked for files[offsets[c]:offsets[c + 1]], 0-indexed ids,
    sorted.  A block lists its trials end to end: cluster c of its i-th trial
    is its cluster i * num_clusters + c."""

    offsets: np.ndarray  # shape (trials * num_clusters + 1,), int64, starts at 0
    files: np.ndarray  # shape (total requests,), int64
    config: SystemConfig

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
        return np.arange(self.offsets.size - 1).repeat(self.cluster_totals())

    @property
    def trials(self) -> int:
        """Trials in the block; a profile of one trial is a block of one."""
        return (self.offsets.size - 1) // self.config.num_clusters

    def trial_totals(self) -> np.ndarray:
        """Requests per trial of the block."""
        ends = self.offsets[::self.config.num_clusters]
        return ends[1:] - ends[:-1]

    def between(self, first: int, last: int) -> RequestProfile:
        """Trials first to last - 1 of the block, counted from 0, as a block of
        their own: its files a view, its offsets rebased to 0."""
        clusters = self.config.num_clusters
        offsets = self.offsets[first * clusters:last * clusters + 1]
        files = self.files[offsets[0]:offsets[-1]]
        return RequestProfile(offsets - offsets[0] if offsets[0] else offsets, files, self.config)

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
# A block's cost beyond its arrays' data (list slots, tuple, array headers):
# tracemalloc measured 300-370 bytes on numpy 2.4, CPython 3.11.
# Charging it keeps blocks of a few requests from piling up past the budget.
PROFILE_MEMO_ENTRY_BYTES = 512
# Requests per block.  Timed per trial against this cap (numpy 2.4, 2
# cores), block draws of 26- to 410-request profiles cost 1.5-2.4x less per
# trial at 2^13 than trials drawn one at a time, no less at 2^14-2^15, and
# more past 2^16, where the sort outgrows the cache.  The longest block grows
# with the cap: at 2^13 it took about 1.4 ms on 240- to 410-request profiles
# and 7-11 ms on 26-request ones, and a parallel run's in-process head
# overshoots its budget by up to one block.
BLOCK_REQUESTS = 1 << 13


def draw_profiles(config: SystemConfig, seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (offsets, files) arrays of the block of trials start,
    start + 1, ... (start < stop): cluster c of its i-th trial is its cluster
    i * num_clusters + c.  The block holds trial `start`, then each next
    trial before `stop` that keeps it within BLOCK_REQUESTS requests, known
    from the trial's Poisson totals before its uniforms are drawn.

    Each trial draws its totals and then its uniforms from its own stream,
    reseated in place of being built, and writes its uniforms into one
    buffer of the block, of BLOCK_REQUESTS slots unless its first trial
    alone asks for more.
    The lookup of the block's uniforms, the cumsum of its offsets and the
    sort within each (trial, cluster) are done once for the block, so each
    trial's requests are those it gives drawn alone.
    """
    lam, clusters = config.rho * config.d, config.num_clusters
    per_trial, uniforms, requests = [], np.empty(BLOCK_REQUESTS), 0
    for trial in range(start, stop):
        rng = reseat(seed, trial, PROFILE_ROLE)
        totals = rng.poisson(lam, size=clusters)
        end = requests + sum(totals.tolist())
        if end > BLOCK_REQUESTS:
            if per_trial:
                break
            uniforms = np.empty(end)
        rng.random(out=uniforms[requests:end])
        per_trial.append(totals)
        requests = end
    totals = per_trial[0] if len(per_trial) == 1 else np.concatenate(per_trial)
    offsets = np.zeros(totals.size + 1, dtype=np.int64)
    totals.cumsum(out=offsets[1:])
    files = build_catalog(config.N, config.beta).file_ids(uniforms[:requests])
    # sort within (trial, cluster): keys in that order never cross blocks;
    # int32 keys, where they fit, sort faster
    span = totals.size * config.N
    dtype = np.int32 if span <= 1 << 31 else np.int64
    base = np.repeat(np.arange(0, span, config.N, dtype=dtype), totals)
    keys = files.astype(dtype, copy=False)
    keys += base
    keys.sort()
    files = np.subtract(keys, base, dtype=np.int64)
    offsets.setflags(write=False)
    files.setflags(write=False)
    return offsets, files


class _ProfileMemo:
    """The blocks drawn for one (N, K, d, rho, beta, seed): (offsets, files)
    arrays of trials starts[i] to stops[i] - 1, sorted by first trial and
    never overlapping.  Not locked: trials run in worker processes, never in
    threads."""

    def __init__(self) -> None:
        self.clear(None)

    def clear(self, key: tuple | None) -> None:
        self.key = key
        self.starts: list[int] = []
        self.stops: list[int] = []
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self.charged = 0  # bytes, entry overhead included

    def keep(self, at: int, start: int, stop: int, arrays: tuple[np.ndarray, np.ndarray]) -> None:
        """Hold the block as the at-th, if it fits in PROFILE_MEMO_BYTES."""
        cost = arrays[0].nbytes + arrays[1].nbytes + PROFILE_MEMO_ENTRY_BYTES
        if self.charged + cost <= PROFILE_MEMO_BYTES:
            self.starts.insert(at, start)
            self.stops.insert(at, stop)
            self.blocks.insert(at, arrays)
            self.charged += cost


_memo = _ProfileMemo()


def sample_profile(config: SystemConfig, seed: int, trial: int = 0, stop: int | None = None) -> RequestProfile:
    """Draw u[n, c] ~ Poisson(rho * d * p_n), independent across (n, c), for
    trials trial to stop - 1 (default: trial alone), as one block.

    Poisson splitting: cluster c draws Y_c ~ Poisson(rho * d) requests, each
    for file n with probability p_n, found by the guide-table inverse-CDF
    lookup of build_catalog(N, beta): one table read and one compare per
    request, and a search only in the few buckets of packed breakpoints.

    The block ends early, at BLOCK_REQUESTS requests (draw_profiles) or at
    the edge of a block the per-process memo holds; the caller asks again
    from where it ended.  A call that starts inside a held block gets a slice
    of it: its files a view, its offsets rebased to 0.  A miss draws up to
    the next held block and keeps what it draws if the block fits in
    PROFILE_MEMO_BYTES.  Held arrays are read-only, and each call wraps them
    in a fresh profile that carries the caller's config.  The memo is module
    state because the experiments that share a draw (the schemes of a sweep
    row, the rows of an M sweep, the Monte Carlo checks) each run their
    trials anew, in the calling process or in a pool worker that outlives
    them.  It holds one key at a time, dropping every block when the key
    changes.
    """
    key = (config.N, config.K, config.d, config.rho, config.beta, operator.index(seed))
    trial = operator.index(trial)
    stop = trial + 1 if stop is None else max(trial + 1, operator.index(stop))
    if key != _memo.key:
        _memo.clear(key)
    at = bisect.bisect_right(_memo.stops, trial)  # the first block to end past `trial`
    if at < len(_memo.starts) and _memo.starts[at] <= trial:
        start = _memo.starts[at]
        block = RequestProfile(*_memo.blocks[at], config)
        return block.between(trial - start, min(stop, _memo.stops[at]) - start)
    if at < len(_memo.starts):
        stop = min(stop, _memo.starts[at])
    block = RequestProfile(*draw_profiles(config, seed, trial, stop), config)
    _memo.keep(at, trial, trial + block.trials, (block.offsets, block.files))
    return block


def within_caps(sizes: np.ndarray, limit: int | np.ndarray) -> np.ndarray | slice:
    """Index of the first `limit` requests of each block, for requests listed
    block by block, `sizes[b]` of them in block b: a mask, or slice(None)
    when no block exceeds its cap.  `limit` is one cap for every block or an
    array of one cap per block."""
    if (sizes <= limit).all():
        return slice(None)
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    return rank < np.repeat(np.broadcast_to(limit, sizes.shape), sizes)


def group_counts(flags: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """True entries of `flags` in each group, for flags listed group by group,
    `sizes[g]` of them in group g; 0 for an empty group."""
    counts = flags.nonzero()[0].searchsorted(sizes.cumsum())  # up to each group's end
    counts[1:] -= counts[:-1]
    return counts


def distinct_counts(keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Distinct keys in each group, `sizes[g]` keys in group g, for keys whose
    sorted order lists the groups in order (key = group * span + id, with
    0 <= id < span): one sort, so memory grows with the keys, never with
    groups * span."""
    # int32 keys, where they fit, sort about twice as fast
    ids = keys.astype(np.int32 if keys.size and keys.max() <= np.iinfo(np.int32).max else np.int64)
    ids.sort()
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return group_counts(first, sizes)
