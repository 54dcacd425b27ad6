"""Knapsack storage allocation and sequential matching for steep popularity.

Storage: a fractional knapsack over files maximizes the per-cluster hit value
v_n = 1 - (1 - p_n)^d subject to copy-count weights w_n and capacity d*M.
Fully selected files keep c_n = w_n copies; the (at most one) fractional file
is dropped.  Copies are dealt to caches round-robin in file order, and each
placement keeps, per file, the ascending list of caches holding it.

Delivery: requests are matched most-popular-last.  Scanning files from least
to most popular, each request picks a uniformly random available cache holding
its file and retires that cache.  Files whose requests cannot all be matched
are broadcast from the server, one transmission per distinct file.  A serve
draws one uniform per request in one call; the request at scan position i
picks index floor(u[i] * #candidates) of its sorted list.  numpy finds the
runs of equal file ids once, then each cluster's runs are walked, last first,
over the holder lists.  Serve reports only counts, so it reads only the
uniforms whose picks a later run of the same cluster can see; the generator
state, and every count, are those of matching every request.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
    # holders[n]: file n's caches, ascending, () if uncached; read-only, derived on construction
    holders: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cached, ids = np.flatnonzero(self.copies), self.cache_ids.tolist()
        holders: list[tuple[int, ...]] = [()] * len(self.copies)
        for n, s, c in zip(cached.tolist(), self.cache_starts[cached].tolist(), self.copies[cached].tolist()):
            holders[n] = tuple(ids[s:s + c])
        object.__setattr__(self, "holders", tuple(holders))


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


def _walk_runs(files, bounds, firsts, holders, u, pairs: bool = True):
    """Most-popular-last matching of runs of equal file ids.

    Run j asks for bounds[j + 1] - bounds[j] copies of file files[j].  Cluster
    c holds runs firsts[c]:firsts[c + 1], in ascending file order, walked from
    the last, clusters in order; u holds one uniform per request in that scan
    order.  A matched request takes index int(u * len) of the sorted free
    caches among holders[n]; one that finds none leaves its uniform unused.
    Returns (matched (file, cache) pairs in match order, unmatched, server).

    With pairs=False, matched stays empty and only the picks a later run of
    the cluster can see are made: the cluster's last cached run serves
    min(r, free caches), and a run asking for every free cache takes them
    all, neither reading its uniforms.  The counts are those of pairs=True.
    """
    matched: list[tuple[int, int]] = []
    server: list[int] = []
    unmatched = pos = 0  # pos: the scan position of run j's first uniform
    for first, stop in zip(firsts, firsts[1:]):
        final = stop if pairs else first  # count mode: the last cached run, served without picks
        while final < stop and not holders[files[final]]:
            final += 1
        taken: set[int] = set()
        for j in range(stop - 1, first - 1, -1):
            n, r = files[j], bounds[j + 1] - bounds[j]
            cand = holders[n]
            if j == final:
                free = len(cand) - len(taken)  # a lower bound: taken may hold others' caches
                if free < r:
                    free = len(cand) - len(taken.intersection(cand))
                served = min(r, free)
            else:
                # filtered once: until the next file, only n's own matches retire caches
                if taken and not taken.isdisjoint(cand):
                    cand = [k for k in cand if k not in taken]
                served = min(r, len(cand))
                if served == len(cand) and not pairs:
                    taken.update(cand)
                elif served == 1:
                    k = cand[int(u[pos] * len(cand))]
                    taken.add(k)
                    matched += [(n, k)] if pairs else []
                else:
                    cand = list(cand)
                    picks = [cand.pop(int(x * len(cand))) for x in u[pos:pos + served]]
                    taken.update(picks)
                    matched += [(n, k) for k in picks] if pairs else []
            if served < r:
                unmatched += r - served
                server.append(n)
            pos += r
    return matched, unmatched, server


def mlp_match(requests, placement: KsPlacement, rng: np.random.Generator) -> MlpOutcome:
    """Most-popular-last matching for one cluster with requests[n] requests for
    file n: one run per requested file, walked as pam_steep_serve walks each
    cluster.  It draws one uniform per request in one call, so calling it
    cluster by cluster replays serve's draws and leaves rng in the same state."""
    requests = np.asarray(requests, dtype=np.int64)
    files = np.flatnonzero(requests)
    bounds = [0, *np.cumsum(requests[files]).tolist()]
    u = rng.random(bounds[-1]).tolist()
    matched, unmatched, server = _walk_runs(files.tolist(), bounds, [0, files.size], placement.holders, u)
    return MlpOutcome(tuple(matched), unmatched, tuple(sorted(server)))


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
    return RateEnvelope(order_value, bool(vanishing), expected_uncached)


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

    Reads only the requests: the runs of equal file ids in profile.files are
    the (file, count) pairs mlp_match takes from each dense cluster column,
    found once in numpy and walked per cluster over the placement's holder
    lists.  Only counts are reported, so the walk skips the picks no later
    run can see; rng still advances by one uniform per request.
    """
    files, offsets = profile.files, profile.offsets
    new = np.empty(files.size + 1, dtype=bool)  # new[i]: request i opens a run
    np.not_equal(files[1:], files[:-1], out=new[1:-1])
    new[offsets] = True  # cluster starts, and the end of the last run
    bounds = np.flatnonzero(new)
    firsts = np.searchsorted(bounds, offsets).tolist()
    u = rng.random(files.size).tolist()
    _, unmatched, server = _walk_runs(files[bounds[:-1]].tolist(), bounds.tolist(), firsts,
                                      placement.holders, u, pairs=False)
    distinct = len(set(server))
    return SteepServeOutcome(distinct, files.size - unmatched, unmatched, float(distinct))
