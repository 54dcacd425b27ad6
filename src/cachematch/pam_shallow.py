"""Proportional replication with adaptive matching, shallow popularity.

Placement: file n gets d_n = max(1, floor(p_n * d * M)) whole-file copies per
cluster (capped at d), leftover slots going to the most popular files; copies
are dealt to caches round-robin in file order so no cache exceeds its
whole-file capacity.

Delivery: a cache whose fractional load sum_n u_n/d_n exceeds 1 is violating;
every request for any file stored on a violating cache is evicted to the
server (one broadcast per distinct evicted file serves all its requesters,
in every cluster).  Surviving requests admit a perfect matching to caches.
An alternative eviction policy removes single requests until loads are
feasible instead of evicting whole files.
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
from .traffic import RequestProfile

_LOAD_TOL = 1e-9  # float slack on the exact rational load threshold

EVICT_FILE = "file"
EVICT_OVERFLOW = "overflow"


@dataclass(frozen=True)
class ProportionalPlacement:
    copies: np.ndarray  # d_n per file, shape (N,), ints >= 1
    cache_contents: tuple[tuple[int, ...], ...]  # files stored on each of d caches
    cache_sets: tuple[tuple[int, ...], ...]  # caches storing each file, sorted


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

    leftover = slots - int(copies.sum())
    while leftover > 0:
        open_files = np.nonzero(copies < d)[0]
        if open_files.size == 0:
            break
        for n in open_files:  # popularity order: p is nonincreasing in index
            if leftover == 0:
                break
            copies[n] += 1
            leftover -= 1

    contents, cache_sets = deal_round_robin(copies, d)
    copies.setflags(write=False)
    return ProportionalPlacement(copies=copies, cache_contents=contents, cache_sets=cache_sets)


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


def pam_shallow_rate_tight(config: SystemConfig) -> float:
    """Tighter two-term alternative to the plain K*M*exp(...) envelope."""
    if not 0 <= config.beta < 1:
        raise DomainError("shallow rate requires beta in [0, 1)")
    K, N, M, d, rho = config.K, config.N, config.M, config.d, config.rho
    if M < memory_threshold(config):
        return rho * K
    z = load_decay_exponent(rho, config.beta)
    head = math.exp(-z * d * M / N)
    alt = K * d * head + (N * K / d) * math.exp(-z * d)
    return min(rho * K, K * M * head, alt)


@dataclass(frozen=True)
class ShallowServeOutcome:
    server_files: int  # distinct files broadcast by the server
    matched_users: int
    unmatched_survivors: int  # should be 0: survivors always match
    evicted_requests: int
    all_feasible: bool  # no cache in any cluster was violating
    rate: float


def _violating(loads: np.ndarray) -> np.ndarray:
    return loads > 1.0 + _LOAD_TOL


def pam_shallow_serve(
    profile: RequestProfile,
    placement: ProportionalPlacement,
    config: SystemConfig,
    eviction: str = EVICT_FILE,
) -> ShallowServeOutcome:
    """Serve one request profile; returns the per-trial decomposition.

    The rate counts distinct server-broadcast files (a broadcast serves every
    requester of that file in all clusters at once); it is bounded by the
    per-trial unicast count automatically.
    """
    if eviction not in (EVICT_FILE, EVICT_OVERFLOW):
        raise DomainError(f"unknown eviction policy {eviction!r}")
    u = profile.counts
    N, d = config.N, config.d
    copies = placement.copies.astype(np.float64)

    # per-cache load matrix: weight[k, n] = 1/d_n if cache k stores file n
    weight = np.zeros((d, N))
    for k, files in enumerate(placement.cache_contents):
        idx = np.fromiter(files, dtype=np.int64, count=len(files))
        weight[k, idx] = 1.0 / copies[idx]

    server_mask = np.zeros(N, dtype=bool)
    matched_users = 0
    unmatched_survivors = 0
    evicted_requests = 0
    any_violation = False

    for c in range(config.num_clusters):
        req = u[:, c]
        if eviction == EVICT_FILE:
            surviving, evicted = _evict_whole_files(req, weight, placement)
        else:
            surviving, evicted = _evict_overflow(req, weight, placement)
        if evicted > 0:
            any_violation = True
        evicted_requests += evicted
        server_mask |= (u[:, c] - surviving > 0)

        owners = [n for n in np.flatnonzero(surviving).tolist() for _ in range(surviving[n])]
        adjacency = tuple([placement.cache_sets[n] for n in owners])
        graph = ClusterBipartiteGraph(len(adjacency), d, adjacency)
        outcome = max_matching(graph)
        matched_users += outcome.size
        unmatched_survivors += len(outcome.unmatched_left)
        for user in outcome.unmatched_left:  # defensive: theory says none
            server_mask[owners[user]] = True

    rate = float(np.count_nonzero(server_mask))
    return ShallowServeOutcome(
        server_files=int(np.count_nonzero(server_mask)),
        matched_users=matched_users,
        unmatched_survivors=unmatched_survivors,
        evicted_requests=evicted_requests,
        all_feasible=not any_violation,
        rate=rate,
    )


def _evict_whole_files(req, weight, placement):
    """Literal policy: drop all requests for every file on a violating cache."""
    loads = weight @ req
    bad = _violating(loads)
    if not bad.any():
        return req.copy(), 0
    evict_files = np.zeros(req.shape[0], dtype=bool)
    for k in np.nonzero(bad)[0]:
        evict_files[list(placement.cache_contents[k])] = True
    surviving = np.where(evict_files, 0, req)
    return surviving, int(req[evict_files].sum())


def _evict_overflow(req, weight, placement):
    """Drop single requests (largest per-request load first) until feasible."""
    work = req.astype(np.int64).copy()
    loads = weight @ work
    evicted = 0
    while True:
        bad = np.nonzero(_violating(loads))[0]
        if bad.size == 0:
            break
        k = int(bad[0])
        stored = [n for n in placement.cache_contents[k] if work[n] > 0]
        # smallest copy count = largest load contribution per evicted request
        n = min(stored, key=lambda f: (placement.copies[f], f))
        work[n] -= 1
        loads = loads - weight[:, n]
        evicted += 1
    return work, evicted
