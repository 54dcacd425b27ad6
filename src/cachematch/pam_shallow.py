"""Proportional replication with adaptive matching, shallow popularity.

Placement: file n gets d_n = max(1, floor(p_n * d * M)) whole-file copies per
cluster (capped at d), leftover slots going to the most popular files; copies
are dealt to caches round-robin in file order so no cache exceeds its
whole-file capacity.

Delivery: a cache whose fractional load sum_n u_n/d_n exceeds 1 is violating;
every request for any file stored on a violating cache is evicted to the
server (one broadcast per distinct evicted file serves all its requesters,
in every cluster).  Survivors always match: with every load at most 1, sending
1/d_n of each request for file n to each of its d_n caches is a fractional
matching that covers them, and the bipartite matching polytope is integral.
So serve stops after eviction; matched_requests runs Hopcroft-Karp only for
the checks (verification's pam-feasible-all-matched, acceptance criterion 04).

Serve takes a block of trials, whose clusters are (trial, cluster) pairs:
one bincount gives every cache load of every trial.  bincount adds each
slot's weights in input order, which is the order of the slot's own trial,
so every load is the one that trial alone gives.  The load array has one
entry per cache of the block's trials, so the block loop bounds the caches
a block spans (montecarlo.BLOCK_CACHES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import DomainError, InsufficientMemory
from .matching import ClusterBipartiteGraph, deal_round_robin, max_matching
from .mathkit import cramer_h
from .popularity import ZipfCatalog
from .traffic import RequestProfile, distinct_counts, group_counts, group_keys

_LOAD_TOL = 1e-9  # float slack on the exact rational load threshold


@dataclass(frozen=True)
class ProportionalPlacement:
    copies: np.ndarray  # d_n per file, shape (N,), ints >= 1
    cache_ids: np.ndarray  # caches storing each file, ascending, in file order
    cache_starts: np.ndarray  # file n's caches start at cache_ids[cache_starts[n]]


def memory_threshold(config: SystemConfig) -> float:
    """Theorem threshold N / ((1 - beta) * d) below which replication fails."""
    return config.N / ((1.0 - config.beta) * config.d)


def proportional_placement(
    config: SystemConfig, catalog: ZipfCatalog
) -> ProportionalPlacement:
    if not 0 <= config.beta < 1:
        raise DomainError("proportional placement requires beta in [0, 1)")
    N, d, M = config.N, config.d, config.M
    if M < memory_threshold(config):
        raise InsufficientMemory(
            f"M = {M} below replication threshold {memory_threshold(config):.6g}"
        )
    slots = d * int(math.floor(M))  # whole files only
    if slots < N:
        raise InsufficientMemory(
            f"cluster holds {slots} whole files < N = {N}; cannot give every file a copy"
        )
    copies = np.maximum(1, np.floor(catalog.p * d * M).astype(np.int64))
    copies = np.minimum(copies, d)
    if int(copies.sum()) > slots:
        raise InsufficientMemory("floor copy counts alone exceed cluster memory")

    # each pass adds one copy to each open file, most popular first (p is
    # nonincreasing in index), until the leftover slots run out
    leftover = slots - int(copies.sum())
    while leftover > 0:
        open_files = np.flatnonzero(copies < d)[:leftover]
        if open_files.size == 0:
            break
        copies[open_files] += 1
        leftover -= open_files.size

    cache_ids, cache_starts = deal_round_robin(copies, d)
    for array in (copies, cache_ids, cache_starts):
        array.setflags(write=False)
    return ProportionalPlacement(copies=copies, cache_ids=cache_ids, cache_starts=cache_starts)


def load_decay_exponent(rho: float, beta: float) -> float:
    """z = (1 - beta) * rho * h((1 + rho) / (2 * rho)); controls overload decay."""
    if not 0 <= beta < 1:
        raise DomainError("decay exponent requires beta in [0, 1)")
    if not 0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    return (1.0 - beta) * rho * cramer_h((1.0 + rho) / (2.0 * rho))


def rate_formula(K: float, N: float, M: float, d: float, rho: float, beta: float) -> float:
    """Analytic expected rate with real-valued inputs."""
    if M < N / ((1.0 - beta) * d):
        return rho * K
    z = load_decay_exponent(rho, beta)
    return min(rho * K, K * M * math.exp(-z * d * M / N))


def pam_shallow_rate(config: SystemConfig) -> float:
    if not 0 <= config.beta < 1:
        raise DomainError("shallow rate requires beta in [0, 1)")
    return rate_formula(
        config.K, config.N, config.M, config.d, config.rho, config.beta
    )


@dataclass(frozen=True, eq=False)
class ShallowServeOutcome:
    evicted_requests: int  # in the whole block; the rest survive eviction and all match
    all_feasible: bool  # no cache of any trial was violating
    rates: np.ndarray  # per trial: distinct files broadcast by the server


def _violating(loads: np.ndarray) -> np.ndarray:
    return loads > 1.0 + _LOAD_TOL


def pam_shallow_serve(block: RequestProfile, placement: ProportionalPlacement) -> ShallowServeOutcome:
    """Serve a block of trials at its config; returns the block's decomposition.

    A trial's rate counts distinct server-broadcast files (a broadcast serves
    every requester of that file in all clusters at once); it is bounded by
    the trial's unicast count automatically.  Work and memory grow with the
    number of requests and caches in the block, not with N.
    """
    d = block.config.d
    files = block.files
    users = block.trial_totals()
    cell = block.cluster_of_request()  # (trial, cluster) pair of each request

    # each request adds 1/d_n to each of its file's d_n caches in its cluster;
    # slot c * d + k is cache k of cell c
    reps = placement.copies[files]
    owner = np.arange(files.size).repeat(reps)  # request behind each slot entry
    rank = np.arange(owner.size) - (reps.cumsum() - reps)[owner]
    slots = cell[owner] * d + placement.cache_ids[placement.cache_starts[files[owner]] + rank]
    loads = np.bincount(slots, weights=1.0 / reps[owner], minlength=(block.offsets.size - 1) * d)

    # drop all requests for every file on a violating cache
    evicted = np.zeros(files.size, dtype=bool)
    evicted[owner[_violating(loads)[slots]]] = True
    evicted_requests = int(np.count_nonzero(evicted))
    rates = np.zeros(users.size)
    if evicted_requests:
        per_trial = group_counts(evicted, users)
        rates += distinct_counts(group_keys(files[evicted], per_trial, block.config.N), per_trial)
    return ShallowServeOutcome(evicted_requests, all_feasible=evicted_requests == 0, rates=rates)


def matched_requests(profile: RequestProfile, placement: ProportionalPlacement) -> int:
    """Requests Hopcroft-Karp matches to distinct caches of their cluster (of
    the profile's d), summed over clusters: the check that a feasible profile
    matches in full."""
    ids, starts = placement.cache_ids.tolist(), placement.cache_starts.tolist()
    ends = (placement.cache_starts + placement.copies).tolist()
    matched = 0
    for cluster_files in np.split(profile.files, profile.offsets[1:-1]):
        adjacency = tuple([tuple(ids[starts[n]:ends[n]]) for n in cluster_files.tolist()])
        matched += max_matching(ClusterBipartiteGraph(len(adjacency), profile.config.d, adjacency)).size
    return matched
