"""Closed-form and loop-based oracles that only the tests call.

Each one states a quantity the program computes another way: the distinct
requested files of a profile, one cache's fractional load, the
closed-form steep region in which the replication-free scheme wins, the
regime verdicts in fractions.Fraction arithmetic, pam-steep's serve step
as the run matcher it replaced computed it, both placements' fills as the
loops they replaced computed them, and each scheme's accounting of
one trial as it was before the schemes scored blocks of trials
(oracle_row).  Also here: profile_from_counts, which builds a profile from
a dense count matrix, join_profiles, which blocks profiles in any split,
and the shallow cut-set converse of the small-memory regime.
"""

import math
from fractions import Fraction

import numpy as np

from cachematch.bounds import DISTINCT_FRACTION
from cachematch.delivery import coded_delivery_rate
from cachematch.errors import DomainError
from cachematch.pam_shallow import _violating
from cachematch.pam_steep import _walk_runs
from cachematch.pcd import PcdRate, coded_pool_size
from cachematch.traffic import MATCHING_ROLE, RequestProfile, stream


def profile_from_counts(counts, config) -> RequestProfile:
    """Profile with counts[n, c] requests for file n in cluster c."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (config.N, config.num_clusters):
        raise DomainError(f"counts shape {counts.shape} != (N, K/d)")
    files = np.repeat(np.tile(np.arange(config.N), config.num_clusters), counts.T.ravel())
    return RequestProfile(np.concatenate(([0], np.cumsum(counts.sum(axis=0)))), files, config)


def join_profiles(profiles: list[RequestProfile]) -> RequestProfile:
    """The profiles' trials end to end, as one block: cluster c of profiles[i]
    is its cluster i * num_clusters + c.  A lone profile is returned as it is."""
    if len(profiles) == 1:
        return profiles[0]
    rows = np.concatenate([p.offsets for p in profiles]).reshape(len(profiles), -1)
    ends = rows[:, -1].cumsum()
    offsets = np.zeros(rows.size - len(profiles) + 1, dtype=np.int64)
    # offsets[1:] is contiguous, so this reshape is a view that add fills
    np.add(rows[:, 1:], (ends - rows[:, -1])[:, None], out=offsets[1:].reshape(len(profiles), -1))
    return RequestProfile(offsets, np.concatenate([p.files for p in profiles]), profiles[0].config)


class MissingCopyCount(ValueError):
    """A stored file has copy count zero, so per-copy load is undefined."""


def distinct_files(profile) -> int:
    """Number of files with at least one request."""
    return len(set(profile.files.tolist()))


def fractional_load(placement_at_cache, requests, copies) -> float:
    """Load sum_n u_n / d_n of one cache over its stored files.

    placement_at_cache lists (file, stored fraction) pairs; entries with zero
    fraction are ignored.  requests and copies are indexable by file id.
    Raises MissingCopyCount when a stored file has copy count zero.
    """
    load = 0.0
    for n, frac in placement_at_cache:
        if frac <= 0:
            continue
        d_n = copies[n]
        if d_n == 0:
            raise MissingCopyCount(f"file {n} is stored but has copy count 0")
        load += requests[n] / d_n
    return load


def steep_pcd_region(point) -> bool:
    """Closed-form region test: mu <= min{nu - delta, (1 - beta*delta)/(beta - 1)}."""
    if point.beta <= 1:
        raise DomainError("steep region requires beta > 1")
    b = Fraction(point.beta)
    nu, delta, mu = Fraction(point.nu), Fraction(point.delta), Fraction(point.mu)
    return mu <= min(nu - delta, (1 - b * delta) / (b - 1))


def steep_exponents(point) -> tuple[Fraction, Fraction]:
    """Exact (sigma_free, sigma_prop) for beta > 1."""
    if point.beta <= 1:
        raise DomainError("steep exponents require beta > 1")
    b = Fraction(point.beta)
    nu, delta, mu = Fraction(point.nu), Fraction(point.delta), Fraction(point.mu)
    sigma_pcd = min((1 - (b - 1) * mu) / b, nu - mu)
    if mu + delta > min(nu, 1 / (b - 1)):
        sigma_pam = Fraction(0)  # proportional rate is o(1) here
    else:
        sigma_pam = min(1 / b, 1 - (b - 1) * (delta + mu))
    return sigma_pcd, sigma_pam


def fraction_verdict(point) -> tuple[str, float, float]:
    """(winner, sigma_pcd, sigma_pam) of regimes.classify_shallow or classify_steep."""
    if point.beta < 1:
        mu, nu, delta = Fraction(point.mu), Fraction(point.nu), Fraction(point.delta)
        sigma_pcd = float(min(Fraction(1), nu - mu))
        if mu < nu - delta:
            return "PCD", sigma_pcd, 1.0
        if mu > nu - delta:
            return "PAM", sigma_pcd, float("-inf")
        return "BOUNDARY", sigma_pcd, sigma_pcd
    sigma_pcd, sigma_pam = steep_exponents(point)
    winner = "PCD" if sigma_pcd < sigma_pam else "PAM" if sigma_pcd > sigma_pam else "BOUNDARY"
    return winner, float(sigma_pcd), float(sigma_pam)


def shallow_lower_bound_small_memory(config) -> float:
    """((1-beta)*a^2*rho/96) * min{N/M, rho*K}, valid for M < a*N/(2*d)."""
    if not 0 <= config.beta < 1:
        raise DomainError("shallow bound requires beta in [0, 1)")
    if config.N < 10:
        raise DomainError("shallow bound is proved for N >= 10")
    a = DISTINCT_FRACTION
    if config.M >= a * config.N / (2.0 * config.d):
        raise DomainError(
            f"M = {config.M} outside the small-memory regime M < {a * config.N / (2 * config.d):.6g}"
        )
    first = config.N / config.M if config.M > 0 else math.inf
    scale = (1.0 - config.beta) * a * a * config.rho / 96.0
    return scale * min(first, config.rho * config.K)


def parent_match_runs(clusters, files, counts, placement, u, pairs=True):
    """Most-popular-last matching of counts[i] requests for file files[i] in
    cluster clusters[i], in scan order: each cluster's files from the least
    popular (largest index) down, clusters one after another.  The run
    matcher pam_steep_serve used before it walked per-placement holder lists.

    u holds one uniform in [0, 1) per request, in scan order.  A matched
    request takes index int(u * len) of the sorted list of currently available
    caches holding its file; a request that finds no available cache leaves
    its uniform unused.  Returns (matched, unmatched, server), where matched
    is the list of (file, cache) pairs in match order.

    With pairs=False, matched stays empty, and a pick is made only where a
    later run of the same cluster can see it: not in the last cached run of a
    cluster, and not in a run that asks for at least as many caches as are
    free.
    """
    sizes = placement.copies[files]
    cached = sizes > 0
    unmatched = int(counts[~cached].sum())  # a file with no copy is never matched
    server: list[int] = files[~cached].tolist()
    positions = (np.cumsum(counts) - counts)[cached]  # each run's first uniform
    clusters, files, counts, sizes = clusters[cached], files[cached], counts[cached], sizes[cached]
    last = np.diff(clusters, append=-1) != 0  # nothing later in the cluster reads taken
    u = u.tolist()
    matched: list[tuple[int, int]] = []
    cluster = None
    runs = zip(clusters.tolist(), files.tolist(), counts.tolist(), sizes.tolist(),
               positions.tolist(), last.tolist())
    for c, n, r, size, pos, final in runs:
        if c != cluster:
            cluster, taken = c, set()
        if final and not pairs:
            free = size - len(taken)  # a lower bound: taken may hold others' caches
            if free < r:
                free = size - len(taken.intersection(placement.holders[n]))
            served = min(r, free)
        else:
            cand = list(placement.holders[n])
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


def parent_pam_steep_serve(profile, placement, rng):
    """(server files, matched users, unmatched requests) of pam_steep_serve,
    computed by reversing each cluster's block of the sorted request list,
    finding its runs with np.diff and matching them with parent_match_runs
    in count mode, on one uniform per request drawn from rng in one call."""
    offsets, cluster = profile.offsets, profile.cluster_of_request()
    files = profile.files[(offsets[1:] + offsets[:-1] - 1)[cluster] - np.arange(cluster.size)]
    first = np.flatnonzero(np.diff(cluster * profile.config.N + files, prepend=-1))
    counts = np.diff(first, append=files.size)
    u = rng.random(files.size)
    _, unmatched, server = parent_match_runs(cluster[first], files[first], counts, placement, u,
                                             pairs=False)
    return len(set(server)), files.size - unmatched, unmatched


def loop_proportional_copies(config, catalog) -> np.ndarray:
    """pam-shallow's copy counts with the leftover slots handed out one at a
    time, file by file in popularity order, pass after pass, as
    proportional_placement did before its passes were numpy operations."""
    d, M = config.d, config.M
    copies = np.minimum(np.maximum(1, np.floor(catalog.p * d * M).astype(np.int64)), d)
    leftover = d * int(math.floor(M)) - int(copies.sum())
    while leftover > 0:
        open_files = np.nonzero(copies < d)[0]
        if open_files.size == 0:
            break
        for n in open_files:
            if leftover == 0:
                break
            copies[n] += 1
            leftover -= 1
    return copies


def loop_knapsack_fill(instance) -> np.ndarray:
    """The fractional solution x of solve_fractional_knapsack, filled one
    file at a time, densest first, subtracting each whole file's weight from
    what is left."""
    v, w = instance.values, instance.weights
    order = np.argsort(-(v / w), kind="stable")
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
    return x


def first_in_file_order(files, sizes, limit):
    """Files of the first `limit` requests of each block, for `files` listed
    block by block, `sizes[b]` of them in block b, each block sorted; `files`
    itself when no block exceeds its cap."""
    if (sizes <= limit).all():
        return files
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(files.size) - np.repeat(starts, sizes)
    return files[rank < np.repeat(np.broadcast_to(limit, sizes.shape), sizes)]


def distinct_count(files) -> int:
    """Number of distinct ids in `files`, a nonnegative integer array."""
    return int(np.count_nonzero(np.bincount(files)))


def trial_pcd_simulate(profile, config) -> PcdRate:
    """pcd's decomposition of one trial, accounted alone."""
    pool = coded_pool_size(config)
    users = profile.total_users
    matched = first_in_file_order(profile.files, profile.cluster_totals(), config.d)
    unmatched_users = users - matched.size

    in_pool = matched[matched < pool]
    coded = 0.0
    if pool > 0:
        coded = coded_delivery_rate(config.K, config.M, pool, distinct_count(in_pool))
    coded_term = coded + (matched.size - in_pool.size)
    total = min(coded_term + unmatched_users, float(users))
    return PcdRate(coded_term, float(unmatched_users), float(total))


def trial_hcm_simulate(profile, plan, config) -> PcdRate:
    """hcm's decomposition of one trial, accounted alone."""
    files = profile.files
    clusters = config.num_clusters
    caps = plan.caches_per_color
    key = plan.file_color[files] * clusters + profile.cluster_of_request()
    block_totals = np.bincount(key, minlength=plan.chi * clusters)
    block_caps = np.repeat(caps, clusters)
    unmatched = int(np.maximum(block_totals - block_caps, 0).sum())
    matched = files
    if unmatched:
        order = np.argsort(key, kind="stable")
        matched = first_in_file_order(files[order], block_totals, block_caps)
    ids = np.sort(matched)
    seen = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=seen[1:])
    distinct = np.bincount(plan.file_color[ids[seen]], minlength=plan.chi)

    coded = 0.0
    for m_x, size, n in zip(caps.tolist(), plan.class_sizes.tolist(), distinct.tolist()):
        if m_x:
            coded += coded_delivery_rate(m_x * clusters, config.M, size, n)

    total = min(coded + unmatched, float(profile.total_users))
    return PcdRate(coded, float(unmatched), total)


def trial_pam_shallow_serve(profile, placement, config) -> tuple[int, bool, float]:
    """(evicted requests, all feasible, rate) of pam-shallow's serve of one trial alone."""
    d, clusters = config.d, config.num_clusters
    files = profile.files
    cluster = profile.cluster_of_request()
    reps = placement.copies[files]
    owner = np.repeat(np.arange(files.size), reps)
    rank = np.arange(owner.size) - (np.cumsum(reps) - reps)[owner]
    slots = cluster[owner] * d + placement.cache_ids[placement.cache_starts[files[owner]] + rank]
    loads = np.bincount(slots, weights=1.0 / reps[owner], minlength=clusters * d)
    keep = np.ones(files.size, dtype=bool)
    keep[owner[_violating(loads)[slots]]] = False
    evicted_requests = int(files.size - np.count_nonzero(keep))
    return evicted_requests, evicted_requests == 0, float(distinct_count(files[~keep]))


def trial_pam_steep_serve(profile, placement, rng) -> tuple[int, float]:
    """(unmatched requests, rate) of pam-steep's serve of one trial alone."""
    files, offsets = profile.files, profile.offsets
    new = np.empty(files.size + 1, dtype=bool)
    np.not_equal(files[1:], files[:-1], out=new[1:-1])
    new[offsets] = True
    bounds = np.flatnonzero(new)
    firsts = np.searchsorted(bounds, offsets).tolist()
    u = rng.random(files.size).tolist()
    _, unmatched, server = _walk_runs(files[bounds[:-1]].tolist(), bounds.tolist(), firsts,
                                      placement.holders, u, pairs=False)
    return unmatched, float(len(set(server)))


def oracle_row(scheme, profile, config, state, seed, trial) -> tuple[float, float, float]:
    """The row (rate, coded, unmatched) of one trial of `scheme`, accounted alone."""
    if scheme in ("pcd", "hcm"):
        if scheme == "pcd":
            r = trial_pcd_simulate(profile, config)
        else:
            r = trial_hcm_simulate(profile, state, config)
        return r.total, r.coded_term, r.unmatched_term
    if scheme == "pam-shallow":
        return trial_pam_shallow_serve(profile, state, config)[2], 0.0, 0.0
    unmatched, rate = trial_pam_steep_serve(profile, state, stream(seed, trial, MATCHING_ROLE))
    return rate, 0.0, float(unmatched)
