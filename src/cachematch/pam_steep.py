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
sorted list.  Serve reports only counts, and most runs of equal file ids
serve min(requests, copies) whatever the picks: one numpy pass over a
block of trials settles those, and Python walks, over the holder lists, only
the clusters in which a pick can change a count.  The generator state, and
every count, are those of matching every request.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import filterfalse

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .matching import deal_round_robin
from .mathkit import power_or_inf
from .popularity import ZipfCatalog
from .traffic import RequestProfile, distinct_counts, group_counts


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


def _walk_runs(files, bounds, firsts, holders, u):
    """Most-popular-last matching of runs of equal file ids.

    Run j asks for bounds[j + 1] - bounds[j] copies of file files[j].  Cluster
    c holds runs firsts[c]:firsts[c + 1], in ascending file order, walked from
    the last, clusters in order; u holds one uniform per request in that scan
    order.  A matched request takes index int(u * len) of the sorted free
    caches among holders[n]; one that finds none leaves its uniform unused.
    Returns (matched (file, cache) pairs in match order, unmatched, server).
    """
    matched: list[tuple[int, int]] = []
    server: list[int] = []
    unmatched = pos = 0  # pos: the scan position of run j's first uniform
    for first, stop in zip(firsts, firsts[1:]):
        taken: set[int] = set()
        for j in range(stop - 1, first - 1, -1):
            n, r = files[j], bounds[j + 1] - bounds[j]
            cand = holders[n]
            # filtered once: until the next file, only n's own matches retire caches
            if taken and not taken.isdisjoint(cand):
                cand = [k for k in cand if k not in taken]
            served = min(r, len(cand))
            if served == 1:
                k = cand[int(u[pos] * len(cand))]
                taken.add(k)
                matched.append((n, k))
            elif served:
                cand = list(cand)
                picks = [cand.pop(int(x * len(cand))) for x in u[pos:pos + served]]
                taken.update(picks)
                matched += [(n, k) for k in picks]
            if served < r:
                unmatched += r - served
                server.append(n)
            pos += r
    return matched, unmatched, server


def mlp_match(requests, placement: KsPlacement, rng: np.random.Generator) -> MlpOutcome:
    """Most-popular-last matching for one cluster with requests[n] requests for
    file n: one run per requested file, every pick made.  It draws one uniform
    per request in one call, so calling it cluster by cluster replays serve's
    draws and leaves rng in the same state."""
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


def _block_runs(block: RequestProfile) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, firsts) of the block's runs of equal file ids: run j is the
    requests bounds[j]:bounds[j + 1] of the block, and (trial, cluster) c
    holds runs firsts[c]:firsts[c + 1], in ascending file order."""
    files, offsets = block.files, block.offsets
    new = np.empty(files.size + 1, dtype=bool)  # new[i]: request i opens a run
    np.not_equal(files[1:], files[:-1], out=new[1:-1])
    new[offsets] = True  # cluster starts, and the end of the last run
    bounds = new.nonzero()[0]
    return bounds, bounds.searchsorted(offsets)


def pam_steep_serve(
    block: RequestProfile, placement: KsPlacement, rngs: Iterable[np.random.Generator]
) -> SteepServeOutcome:
    """Serve a block of profiles, one generator per trial: MLP per cluster
    (index order), one uniform per request, drawn in one call per trial.

    rngs is consumed one trial at a time, in order, and a trial's draws are
    done before the next generator is taken, so rngs may yield one generator
    reseated anew for each trial (traffic.reseat), as the trial loop does.
    Every trial makes its one random(R_t) call, whether or not a pick reads
    it, so each rng ends where matching every request leaves it.

    Only counts are reported.  In a (trial, cluster), a run of r requests for
    a file with c copies is uncached (c = 0), the final run (the first cached
    one in file order, which the walk reaches last) or a picking run.  One
    numpy pass serves every run min(r, c), exact whatever the picks for an
    uncached run (its file is broadcast), a final with no picking run before
    it, a lone picking run (it finds nothing taken), and a final after one
    picking run p when c - min(r_p, c_p) >= r (p takes at most min(r_p, c_p)
    of its caches).  Python walks every other cluster over the holder lists,
    its picking runs last first and then its final, each picking run reading
    its uniforms at its scan position in the trial; its uncached runs take no
    cache and keep their count.  A trial's rate is its number of distinct
    files with an unmatched request.
    """
    clusters = block.config.num_clusters
    bounds, firsts = _block_runs(block)
    sizes = np.diff(bounds)  # r of each run
    copies = placement.copies[block.files[bounds[:-1]]]
    served = np.minimum(sizes, copies)
    cached = copies.nonzero()[0]
    before = cached.searchsorted(firsts)  # cached runs ahead of each cluster
    per_cluster = np.diff(before)
    contended = per_cluster > 2  # two picking runs or more
    pairs = (per_cluster == 2).nonzero()[0]  # a final and one picking run
    final, picking = cached[before[pairs]], cached[before[pairs] + 1]
    contended[pairs[copies[final] - served[picking] < sizes[final]]] = True

    ends = block.offsets[::clusters].tolist()  # each trial's requests: ends[t]:ends[t + 1]
    draws = [rng.random(b - a) for a, b, rng in zip(ends, ends[1:], rngs)]
    if contended.any():
        walked = cached[contended.repeat(per_cluster)][::-1]  # clusters last first, each's final last
        served[walked] = _walk_contended(block, placement.holders, bounds, walked, served[walked],
                                         contended, per_cluster, np.concatenate(draws))

    missed = sizes - served
    run_ends = firsts[::clusters]  # each trial's runs: run_ends[t]:run_ends[t + 1]
    totals = np.concatenate(([0], missed.cumsum()))[run_ends]
    short = missed > 0
    per_trial = group_counts(short, np.diff(run_ends))
    server = block.files[bounds[:-1][short]]
    server += np.arange(per_trial.size).repeat(per_trial) * block.config.N  # keyed by trial
    return SteepServeOutcome(np.diff(totals), distinct_counts(server, per_trial).astype(np.float64))


def _walk_contended(block, holders, bounds, walked, most, contended, per_cluster, u):
    """What each of the walked runs serves, in the order given: each contended
    cluster's cached runs, from the last to its final, with a fresh taken
    set.  most[i] = min(r, c) of walked run i is the most uniforms it reads
    from u, the block's uniforms, at position o + e - bounds[j + 1] for a
    run j of the (trial, cluster) whose requests are o:e."""
    offsets = block.offsets
    groups = per_cluster[contended][::-1]
    cluster = contended.nonzero()[0][::-1].repeat(groups)
    final = np.zeros(walked.size, dtype=bool)
    final[groups.cumsum() - 1] = True
    reads = np.where(final, 0, most)
    ends = reads.cumsum()
    at = ends - reads  # each run's first uniform in the gathered list
    first = offsets[cluster] + offsets[cluster + 1] - bounds[walked + 1]
    gathered = u[(first - at).repeat(reads) + np.arange(ends[-1])].tolist()
    out: list[int] = []
    taken: set[int] = set()
    runs = zip(block.files[bounds[walked]].tolist(), (bounds[walked + 1] - bounds[walked]).tolist(),
               at.tolist(), final.tolist())
    for n, r, i, last in runs:
        cand = holders[n]
        if last:
            free = len(cand) - len(taken)  # a lower bound: taken may hold others' caches
            if free < r:
                free = len(cand) - len(taken.intersection(cand))
            out.append(r if r < free else free)
            taken = set()
            continue
        if r >= len(cand):  # takes every free cache
            held = len(taken)
            taken.update(cand)
            out.append(len(taken) - held)
            continue
        # filtered once: until the next file, only n's own matches retire caches
        if taken and not taken.isdisjoint(cand):
            cand = [*filterfalse(taken.__contains__, cand)]
        free = len(cand)
        if r >= free:
            taken.update(cand)
            out.append(free)
        elif r == 1:
            taken.add(cand[int(gathered[i] * free)])
            out.append(1)
        else:
            cand = list(cand)
            taken.update([cand.pop(int(x * len(cand))) for x in gathered[i:i + r]])
            out.append(r)
    return out


def cluster_matchings(block: RequestProfile, placement: KsPlacement,
                      rngs: Iterable[np.random.Generator]) -> Iterator[MlpOutcome]:
    """The MlpOutcome of each (trial, cluster) of the block, in order: what
    mlp_match gives on each dense cluster column, called cluster by cluster,
    walking _block_runs' runs on the cluster's slice of its trial's one draw.
    rngs gives one generator per trial and is consumed as pam_steep_serve
    consumes it, so it may reseat one generator anew for each trial."""
    clusters = block.config.num_clusters
    bounds, firsts = _block_runs(block)
    files, bounds, firsts = block.files[bounds[:-1]].tolist(), bounds.tolist(), firsts.tolist()
    offsets = block.offsets.tolist()
    for t, rng in zip(range(block.trials), rngs):
        origin = offsets[t * clusters]
        u = rng.random(offsets[(t + 1) * clusters] - origin).tolist()
        for c in range(t * clusters, (t + 1) * clusters):
            cluster_u = u[offsets[c] - origin:offsets[c + 1] - origin]
            matched, unmatched, server = _walk_runs(files, bounds, firsts[c:c + 2], placement.holders, cluster_u)
            yield MlpOutcome(tuple(matched), unmatched, tuple(sorted(server)))
