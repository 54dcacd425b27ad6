"""Knapsack storage allocation and sequential matching for steep popularity.

Storage: a fractional knapsack over files maximizes the per-cluster hit value
v_n = 1 - (1 - p_n)^d subject to copy-count weights w_n and capacity d*M.
Fully selected files keep c_n = w_n copies; the (at most one) fractional file
is dropped.  Copies are dealt to caches round-robin in file order.

Delivery: requests are matched most-popular-last.  Scanning files from least
to most popular, each request picks a uniformly random available cache holding
its file and retires that cache.  Files whose requests cannot all be matched
are broadcast from the server, one transmission per distinct file.  A serve
draws one uniform per request, all in one generator call, and the request at
scan position i picks index floor(u[i] * #candidates) of its sorted list.
Serve reports only counts, so it reads only the uniforms whose picks a later
run of the same cluster can see; the generator state, and every count, are
those of matching every request.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .matching import deal_round_robin
from .mathkit import power_or_inf
from .popularity import ZipfCatalog, build_catalog
from .traffic import RequestProfile


@dataclass(frozen=True)
class KnapsackInstance:
    values: np.ndarray  # v_n = 1 - (1 - p_n)^d
    weights: np.ndarray  # per-file copy cost, ints in [1, d]
    capacity: float  # d * M
    cluster_size: int
    n1: int  # head/middle split (1-indexed file count)
    n2: int  # middle/tail split (1-indexed file count)


@dataclass(frozen=True)
class KsPlacement:
    x: np.ndarray  # fractional solution, x_n in [0, 1]
    copies: np.ndarray  # c_n = w_n * floor(x_n); 0 for an uncached file
    cache_ids: np.ndarray  # caches holding each file, ascending, in file order
    cache_starts: np.ndarray  # file n's caches start at cache_ids[cache_starts[n]]


def build_knapsack(config: SystemConfig, catalog: ZipfCatalog) -> KnapsackInstance:
    if config.beta <= 1:
        raise DomainError("knapsack storage targets beta > 1")
    if config.d < 2:
        raise DomainError("need cluster size d >= 2")
    N, d, beta = config.N, config.d, config.beta
    p = catalog.p
    p1 = float(p[0])
    log_d = math.log(d)

    n1 = int(math.floor(d ** (1.0 / beta) / (p1 * log_d ** (2.0 / beta))))
    n1 = max(1, n1)
    n2 = min(N, int(math.ceil(d ** ((1.0 + 1.0 / beta) / 2.0))))
    n2 = max(1, n2)
    if n1 > n2:
        warnings.warn(
            f"split points crossed (n1={n1} > n2={n2}) at d={d}; clamping n1",
            RuntimeWarning,
            stacklevel=2,
        )
        n1 = n2

    weights = np.ones(N, dtype=np.int64)
    weights[0] = d
    head = slice(1, n1)  # files 2..n1
    weights[head] = np.ceil((1.0 + p1 / 2.0) * config.rho * d * p[head]).astype(np.int64)
    mid_cost = int(math.ceil(4.0 * p1 * log_d**2))
    weights[n1:n2] = mid_cost  # files n1+1..n2
    np.minimum(weights, d, out=weights)  # a cluster cannot hold > d copies

    values = 1.0 - (1.0 - p) ** d
    values.setflags(write=False)
    weights.setflags(write=False)
    return KnapsackInstance(
        values=values,
        weights=weights,
        capacity=float(d * config.M),
        cluster_size=d,
        n1=n1,
        n2=n2,
    )


def solve_fractional_knapsack(instance: KnapsackInstance) -> KsPlacement:
    """Greedy ratio fill; exact for the fractional relaxation."""
    v, w = instance.values, instance.weights
    order = np.argsort(-(v / w), kind="stable")  # densest first, ties by index
    x = np.zeros(len(v))
    remaining = instance.capacity
    for i in order:
        if remaining <= 0:
            break
        if w[i] <= remaining:
            x[i] = 1.0
            remaining -= float(w[i])
        else:
            x[i] = remaining / float(w[i])
            remaining = 0.0
    copies = np.where(x == 1.0, w, 0).astype(np.int64)
    cache_ids, cache_starts = deal_round_robin(copies, instance.cluster_size)
    for array in (x, copies, cache_ids, cache_starts):
        array.setflags(write=False)
    return KsPlacement(x=x, copies=copies, cache_ids=cache_ids, cache_starts=cache_starts)


@dataclass(frozen=True)
class MlpOutcome:
    matched: tuple[tuple[int, int], ...]  # (file, cache) in match order
    unmatched_requests: int
    server_files: tuple[int, ...]  # distinct files with unmatched requests, sorted


def _match_runs(clusters, files, counts, placement: KsPlacement, u: np.ndarray, pairs: bool = True):
    """Most-popular-last matching of counts[i] requests for file files[i] in
    cluster clusters[i], in scan order: each cluster's files from the least
    popular (largest index) down, clusters one after another.

    u holds one uniform in [0, 1) per request, in scan order.  A matched
    request takes index int(u * len) of the sorted list of currently available
    caches holding its file; a request that finds no available cache leaves
    its uniform unused.  Returns (matched, unmatched, server), where matched
    is the list of (file, cache) pairs in match order.

    With pairs=False, matched stays empty, and a pick is made only where a
    later run of the same cluster can see it.  The
    last cached run of a cluster serves min(r, free caches): nothing after it
    reads the caches it retires, and taken starts empty in the next cluster.
    A run that asks for at least as many caches as are free retires all of
    them, whatever the order of its picks.  Neither reads its uniforms, and
    the counts are those of the pairs mode.
    """
    sizes = placement.copies[files]
    cached = sizes > 0
    unmatched = int(counts[~cached].sum())  # a file with no copy is never matched
    server: list[int] = files[~cached].tolist()
    positions = (np.cumsum(counts) - counts)[cached]  # each run's first uniform
    clusters, files, counts, sizes = clusters[cached], files[cached], counts[cached], sizes[cached]
    last = np.diff(clusters, append=-1) != 0  # nothing later in the cluster reads taken
    cache_ids, u = placement.cache_ids.tolist(), u.tolist()
    starts = placement.cache_starts[files].tolist()
    matched: list[tuple[int, int]] = []
    cluster = None
    runs = zip(clusters.tolist(), files.tolist(), counts.tolist(), starts, sizes.tolist(),
               positions.tolist(), last.tolist())
    for c, n, r, start, size, pos, final in runs:
        if c != cluster:
            cluster, taken = c, set()
        if final and not pairs:
            free = size - len(taken)  # a lower bound: taken may hold others' caches
            if free < r:
                free = size - len(taken.intersection(cache_ids[start:start + size]))
            served = min(r, free)
        else:
            # filtered once: until the next file, only n's own matches retire caches
            cand = cache_ids[start:start + size]
            if not taken.isdisjoint(cand):
                cand = [k for k in cand if k not in taken]
            served = min(r, len(cand))
            if pairs or served < len(cand):
                picks = [cand.pop(int(x * len(cand))) for x in u[pos:pos + served]]
                taken.update(picks)
                if pairs:
                    matched += [(n, k) for k in picks]
            else:
                taken.update(cand)
        if served < r:
            unmatched += r - served
            server.append(n)
    return matched, unmatched, server


def mlp_match(requests, placement: KsPlacement, rng: np.random.Generator) -> MlpOutcome:
    """Most-popular-last matching for one cluster with requests[n] requests for
    file n: a dense adapter over the run matcher of pam_steep_serve.  It draws
    one uniform per request in one call, so calling it cluster by cluster
    replays serve's draws and leaves rng in the same state."""
    requests = np.asarray(requests, dtype=np.int64)
    files = np.flatnonzero(requests)[::-1]
    u = rng.random(int(requests.sum()))
    matched, unmatched, server = _match_runs(np.zeros_like(files), files, requests[files], placement, u)
    return MlpOutcome(
        matched=tuple(matched),
        unmatched_requests=unmatched,
        server_files=tuple(sorted(server)),
    )


@dataclass(frozen=True)
class RateEnvelope:
    """Order-level rate guarantees; leading constants are not pinned down."""

    order_value: float  # min{K / (d*M)^(beta-1), K^(1/beta)}
    vanishing_memory_met: bool  # d*M >= N*log(N): rate is o(1)
    expected_uncached: float  # exact E[# distinct uncached files requested by K users]


def steep_order_value(config: SystemConfig) -> float:
    """min{K / (d*M)^(beta-1), K^(1/beta)}; K^(1/beta) alone when d*M <= 1.
    A power too large for a double takes its limit, so the first term is 0."""
    if config.beta <= 1:
        raise DomainError("steep envelope requires beta > 1")
    K, d, M, beta = config.K, config.d, config.M, config.beta
    if M > 0 and d * M > 1:
        return min(K / power_or_inf(d * M, beta - 1.0), K ** (1.0 / beta))
    return K ** (1.0 / beta)


def pam_steep_rate(config: SystemConfig) -> RateEnvelope:
    order_value = steep_order_value(config)
    catalog = build_catalog(config.N, config.beta)
    placement = solve_fractional_knapsack(build_knapsack(config, catalog))
    vanishing = config.d * config.M >= config.N * math.log(config.N)
    uncached = catalog.p[placement.copies == 0]
    expected_uncached = float(np.sum(1.0 - (1.0 - uncached) ** config.K))

    return RateEnvelope(
        order_value=order_value,
        vanishing_memory_met=bool(vanishing),
        expected_uncached=expected_uncached,
    )


@dataclass(frozen=True)
class SteepServeOutcome:
    server_files: int  # distinct files broadcast by the server
    matched_users: int
    unmatched_requests: int
    rate: float


def pam_steep_serve(
    profile: RequestProfile, placement: KsPlacement, rng: np.random.Generator
) -> SteepServeOutcome:
    """Serve one profile: MLP per cluster (index order), one uniform per
    request, drawn in one call.

    Reads only the requests: the runs of equal file ids in profile.files,
    each cluster's block reversed, are the (file, count) pairs that mlp_match
    takes from each dense cluster column, matched with the same draws.  Only
    counts are reported, so the matcher runs in count mode and skips the
    picks no later run can see (a cluster's last run, and runs that take
    every free cache); rng still advances by one uniform per request.
    """
    offsets, cluster = profile.offsets, profile.cluster_of_request()
    files = profile.files[(offsets[1:] + offsets[:-1] - 1)[cluster] - np.arange(cluster.size)]
    first = np.flatnonzero(np.diff(cluster * profile.config.N + files, prepend=-1))
    counts = np.diff(first, append=files.size)
    u = rng.random(files.size)
    _, unmatched, server = _match_runs(cluster[first], files[first], counts, placement, u, pairs=False)
    distinct = len(set(server))
    return SteepServeOutcome(
        server_files=distinct,
        matched_users=files.size - unmatched,
        unmatched_requests=unmatched,
        rate=float(distinct),
    )
