"""Knapsack storage allocation and sequential matching for steep popularity.

Storage: a fractional knapsack over files maximizes the per-cluster hit value
v_n = 1 - (1 - p_n)^d subject to copy-count weights w_n and capacity d*M.
Fully selected files keep c_n = w_n copies; the (at most one) fractional file
is dropped.  Copies are dealt to caches round-robin in file order, and each
placement keeps, per file, the ascending list of caches holding it.

Delivery: requests are matched most-popular-last.  Scanning files from least
to most popular, each request picks a uniformly random available cache holding
its file and retires that cache.  Files whose requests cannot all be matched
are broadcast from the server, one transmission per distinct file.  Each
trial draws one uniform per request in one call from its own generator; the
request at scan position i picks index floor(u[i] * #candidates) of its
sorted list.  numpy finds the runs of equal file ids once per block of
trials, then each trial walks its clusters' runs, last first, over the
holder lists.  Serve reports only counts, so it reads only the uniforms whose
picks a later run of the same cluster can see; the generator state, and
every count, are those of matching every request.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .matching import deal_round_robin
from .mathkit import power_or_inf
from .popularity import ZipfCatalog
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
    # holders[n]: file n's caches, ascending, () if uncached
    holders: tuple[tuple[int, ...], ...] = field(repr=False)


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
            f"split points crossed (n1={n1} > n2={n2}) at N={N}, d={d}, beta={beta}; clamping n1",
            RuntimeWarning,
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
    """Greedy ratio fill; exact for the fractional relaxation.

    Densest first, ties by index, files are taken whole while they fit, and
    the first that does not gets the fraction of it that is left.  The whole
    files are the prefix whose cumulative weight is at most the capacity c:
    one cumsum and one searchsorted give the bytes of subtracting the
    weights one at a time, as that is exact.  Each partial sum S is an
    integer below 2^53, so a double.  For c < 2^53, ulp(c) is a power of two
    at most 1, so c and S are multiples of it, and c - S, a multiple of it
    in [0, c], needs no more bits than c: a double too.  A capacity of 2^53
    or more exceeds every total weight, so every file is whole.
    """
    v, w = instance.values, instance.weights
    order = np.argsort(-(v / w), kind="stable")  # densest first, ties by index
    filled = w[order].cumsum()
    whole = int(filled.searchsorted(instance.capacity, side="right"))
    x = np.zeros(len(v))
    x[order[:whole]] = 1.0
    remaining = instance.capacity - (float(filled[whole - 1]) if whole else 0.0)
    if whole < len(order) and remaining > 0:
        x[order[whole]] = remaining / float(w[order[whole]])
    copies = np.where(x == 1.0, w, 0).astype(np.int64)
    cache_ids, cache_starts = deal_round_robin(copies, instance.cluster_size)
    cached, ids = np.flatnonzero(copies), cache_ids.tolist()
    holders: list[tuple[int, ...]] = [()] * len(copies)
    for n, s, c in zip(cached.tolist(), cache_starts[cached].tolist(), copies[cached].tolist()):
        holders[n] = tuple(ids[s:s + c])
    for array in (x, copies):
        array.setflags(write=False)
    return KsPlacement(x=x, copies=copies, holders=tuple(holders))


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


def steep_order_value(config: SystemConfig) -> float:
    """min{K / (d*M)^(beta-1), K^(1/beta)}; K^(1/beta) alone when d*M <= 1.
    A power too large for a double takes its limit, so the first term is 0."""
    if config.beta <= 1:
        raise DomainError("steep envelope requires beta > 1")
    K, d, M, beta = config.K, config.d, config.M, config.beta
    if M > 0 and d * M > 1:
        return min(K / power_or_inf(d * M, beta - 1.0), K ** (1.0 / beta))
    return K ** (1.0 / beta)


@dataclass(frozen=True, eq=False)
class SteepServeOutcome:
    unmatched_requests: np.ndarray  # per trial; the rest are matched
    rates: np.ndarray  # per trial: distinct files broadcast by the server


def trial_runs(block: RequestProfile) -> list[tuple[list[int], list[int], list[int]]]:
    """Each trial's (files, bounds, firsts) of its runs of equal file ids, as
    _walk_runs takes them: run j asks for bounds[j + 1] - bounds[j] copies of
    files[j], and cluster c of the trial holds runs firsts[c]:firsts[c + 1].
    These are the (file, count) pairs mlp_match takes from each dense cluster
    column.  The runs are found once for the block; run indices count from
    the trial's first run, and bounds are positions in the block, from the
    trial's first request, bounds[0], to its end."""
    files, offsets = block.files, block.offsets
    clusters = block.config.num_clusters
    new = np.empty(files.size + 1, dtype=bool)  # new[i]: request i opens a run
    np.not_equal(files[1:], files[:-1], out=new[1:-1])
    new[offsets] = True  # cluster starts, and the end of the last run
    bounds = new.nonzero()[0]
    firsts = bounds.searchsorted(offsets)
    trial_firsts = firsts[::clusters]
    run_files, run_bounds = files[bounds[:-1]].tolist(), bounds.tolist()
    # small run indices, as in a trial found alone, keep the walk's ints cached
    cluster_firsts = (firsts[:-1] - trial_firsts[:-1].repeat(clusters)).tolist()
    starts, out = trial_firsts.tolist(), []
    for t, (a, b) in enumerate(zip(starts, starts[1:])):
        trial_cluster_firsts = cluster_firsts[t * clusters:(t + 1) * clusters] + [b - a]
        out.append((run_files[a:b], run_bounds[a:b + 1], trial_cluster_firsts))
    return out


def pam_steep_serve(
    block: RequestProfile, placement: KsPlacement, rngs: Iterable[np.random.Generator]
) -> SteepServeOutcome:
    """Serve a block of profiles, one generator per trial: MLP per cluster
    (index order), one uniform per request, drawn in one call per trial.

    rngs is consumed one trial at a time, in order, and a trial's draws are
    done before the next generator is taken, so rngs may yield one generator
    reseated anew for each trial (traffic.reseat), as the trial loop does.

    Reads only the requests: the block's runs are found once (trial_runs),
    and each trial's clusters are walked over the placement's holder lists.
    Only counts are reported, so the walk skips the picks no later run can
    see; each rng still advances by one uniform per request of its trial.
    """
    unmatched, rates = [], []
    for (files, bounds, firsts), rng in zip(trial_runs(block), rngs):
        u = rng.random(bounds[-1] - bounds[0]).tolist()
        _, missed, server = _walk_runs(files, bounds, firsts, placement.holders, u, pairs=False)
        unmatched.append(missed)
        rates.append(len(set(server)))
    return SteepServeOutcome(np.array(unmatched, dtype=np.int64), np.array(rates, dtype=np.float64))


def cluster_matchings(block: RequestProfile, placement: KsPlacement,
                      rngs: list[np.random.Generator]) -> Iterator[MlpOutcome]:
    """The MlpOutcome of each (trial, cluster) of the block, in order, on one
    generator per trial: what mlp_match gives on each dense cluster column,
    called cluster by cluster, found on the block's runs (trial_runs)."""
    for (files, bounds, firsts), rng in zip(trial_runs(block), rngs):
        origin = bounds[0]
        u = rng.random(bounds[-1] - origin).tolist()
        for c in range(len(firsts) - 1):
            run = firsts[c:c + 2]
            lo, hi = bounds[run[0]] - origin, bounds[run[1]] - origin  # the cluster's uniforms
            matched, unmatched, server = _walk_runs(files, bounds, run, placement.holders, u[lo:hi])
            yield MlpOutcome(tuple(matched), unmatched, tuple(sorted(server)))
