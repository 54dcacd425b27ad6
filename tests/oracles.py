"""Closed-form and loop-based oracles that only the tests call.

Each one states a quantity the program computes another way: the distinct
requested files of a profile, one cache's fractional load, the
closed-form steep region in which the replication-free scheme wins, and
pam-steep's serve step as the run matcher it replaced computed it.
"""

from fractions import Fraction

import numpy as np

from cachematch.errors import DomainError


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
