"""Differential tests: pam-shallow serve on sparse per-request loads.

The oracle below is the dense formulation: a d x N weight matrix per trial,
one matrix-vector product per cluster over the full count column, the
whole-file eviction loop on dense per-file counts, and Hopcroft-Karp over the
surviving requests.
pam_shallow_serve reads only the requested files and stops after eviction; on
the same counts both must give the same outcome, field by field, and the
oracle must match every survivor.
"""

import numpy as np
import pytest

from cachematch.matching import ClusterBipartiteGraph, max_matching
from cachematch.pam_shallow import (
    _violating,
    memory_threshold,
    pam_shallow_serve,
    proportional_placement,
)
from cachematch.popularity import build_catalog
from cachematch.traffic import sample_profile

from conftest import make_config, python_deal_round_robin
from oracles import profile_from_counts

PROFILES = 60  # profiles of each kind (drawn counts, sampled) per configuration


def dense_serve(counts, placement, config):
    u = counts
    N, d = config.N, config.d
    copies = placement.copies.astype(np.float64)

    weight = np.zeros((d, N))
    owner = np.repeat(np.arange(N), placement.copies)  # file behind each cache_ids entry
    weight[placement.cache_ids, owner] = 1.0 / copies[owner]

    server_mask = np.zeros(N, dtype=bool)
    unmatched_survivors = 0
    evicted_requests = 0
    any_violation = False

    for c in range(config.num_clusters):
        req = u[:, c]
        surviving, evicted = _dense_evict_whole_files(req, weight, placement)
        if evicted > 0:
            any_violation = True
        evicted_requests += evicted
        server_mask |= (u[:, c] - surviving > 0)

        owners = [n for n in np.flatnonzero(surviving).tolist() for _ in range(surviving[n])]
        adjacency = tuple([tuple(np.flatnonzero(weight[:, n]).tolist()) for n in owners])
        graph = ClusterBipartiteGraph(len(adjacency), d, adjacency)
        outcome = max_matching(graph)
        unmatched_survivors += len(outcome.unmatched_left)
        for user in outcome.unmatched_left:
            server_mask[owners[user]] = True

    outcome = (evicted_requests, not any_violation, [float(np.count_nonzero(server_mask))])
    return outcome, unmatched_survivors


def _dense_evict_whole_files(req, weight, placement):
    loads = weight @ req
    bad = _violating(loads)
    if not bad.any():
        return req.copy(), 0
    evict_files = np.zeros(req.shape[0], dtype=bool)
    for k in np.nonzero(bad)[0]:
        evict_files[weight[k] > 0] = True
    surviving = np.where(evict_files, 0, req)
    return surviving, int(req[evict_files].sum())


def _random_counts(gen, config, per_cluster):
    """Counts averaging `per_cluster` requests per cluster; one cluster is empty."""
    p = build_catalog(config.N, config.beta).p
    counts = gen.poisson(per_cluster * p[:, None], size=(config.N, config.num_clusters))
    counts[:, gen.integers(config.num_clusters)] = 0
    return counts


CONFIGS = [
    make_config(K=40, d=10, N=20, M=4.0, rho=0.3),
    make_config(K=30, d=10, N=25, M=6.0, beta=0.3),  # copy counts vary
    make_config(K=36, d=12, N=30, M=8.0, beta=0.6),
    make_config(K=20, d=5, N=12, M=13.0, beta=0.8),
]


@pytest.mark.parametrize("config", CONFIGS)
def test_serve_matches_dense_oracle(config):
    assert config.M >= memory_threshold(config)
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    gen = np.random.default_rng(2026)
    profiles = [
        profile_from_counts(
            _random_counts(gen, config, per_cluster=config.d * (0.3 + 0.4 * (i % 4))), config
        )
        for i in range(PROFILES)
    ]
    profiles += [sample_profile(config, seed=23, trial=t) for t in range(PROFILES)]
    evicting = feasible = 0
    for profile in profiles:
        expected, unmatched_survivors = dense_serve(profile.counts, placement, config)
        out = pam_shallow_serve(profile, placement)
        assert (out.evicted_requests, out.all_feasible, out.rates.tolist()) == expected
        assert unmatched_survivors == 0  # survivors always match
        evicting += expected[0] > 0
        feasible += expected[1]
    assert evicting > 0 and feasible > 0  # both branches ran


def test_placement_flat_arrays_list_cache_sets():
    config = make_config(K=36, d=12, N=30, M=8.0, beta=0.6)
    placement = proportional_placement(config, build_catalog(config.N, config.beta))
    assert len(set(placement.copies.tolist())) > 1
    cache_sets = python_deal_round_robin(placement.copies, config.d)
    for n, caches in enumerate(cache_sets):
        start = placement.cache_starts[n]
        assert placement.cache_ids[start:start + placement.copies[n]].tolist() == list(caches)
    assert placement.cache_ids.size == placement.copies.sum()


def test_serve_never_builds_dense_counts():
    config = CONFIGS[0]
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    profile = sample_profile(config, seed=3, trial=0)
    pam_shallow_serve(profile, placement)
    assert "counts" not in vars(profile)  # the lazy dense view stayed unbuilt
