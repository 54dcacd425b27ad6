"""Differential tests: first-d matching on sorted request lists.

The oracles below are the dense formulations, cumulative sums over the full
N x K/d count matrix.  The simulators read the sparse profile instead; on the
same counts both must give bitwise-equal rates.
"""

import dataclasses

import numpy as np
import pytest

from cachematch.delivery import coded_delivery_rate
from cachematch.hcm import build_color_plan, hcm_simulate
from cachematch.pcd import PcdRate, coded_pool_size, pcd_simulate
from cachematch.popularity import build_catalog
from cachematch.traffic import RequestProfile, sample_profile

from conftest import make_config

PROFILES = 100  # random profiles per configuration


def dense_pcd_simulate(counts, config):
    u = counts
    K, d, M = config.K, config.d, config.M
    pool = coded_pool_size(config)

    cs = np.cumsum(u, axis=0)
    prev = cs - u
    matched = np.minimum(cs, d) - np.minimum(prev, d)
    totals = cs[-1, :] if cs.shape[0] else np.zeros(u.shape[1], dtype=np.int64)
    unmatched_users = int(np.maximum(totals - d, 0).sum())

    if pool > 0:
        distinct_matched = int(np.count_nonzero(matched[:pool].sum(axis=1) > 0))
        coded = coded_delivery_rate(K, M, pool, distinct_matched)
    else:
        coded = 0.0
    overflow_unicasts = int(matched[pool:].sum())

    coded_term = coded + overflow_unicasts
    total = min(coded_term + unmatched_users, float(u.sum()))
    return PcdRate(coded_term, float(unmatched_users), float(total))


def dense_hcm_simulate(counts, plan, config):
    u = counts
    chi = plan.chi
    clusters = config.num_clusters

    color_totals = np.zeros((chi, clusters), dtype=np.int64)
    np.add.at(color_totals, plan.file_color, u)
    slots = plan.caches_per_color[:, None]
    unmatched = int(np.maximum(color_totals - slots, 0).sum())

    coded = 0.0
    for x in range(chi):
        m_x = int(plan.caches_per_color[x])
        if m_x == 0:
            continue
        rows = u[x::chi, :]
        cs = np.cumsum(rows, axis=0)
        prev = cs - rows
        matched = np.minimum(cs, m_x) - np.minimum(prev, m_x)
        distinct = int(np.count_nonzero(matched.sum(axis=1) > 0))
        coded += coded_delivery_rate(
            m_x * clusters, config.M, int(plan.class_sizes[x]), distinct
        )

    total = min(coded + unmatched, float(u.sum()))
    return PcdRate(coded, float(unmatched), total)


def _random_counts(gen, config, per_cluster):
    """Counts averaging `per_cluster` requests per cluster; one cluster is empty."""
    lam = gen.uniform(0.0, 2.0 * per_cluster / config.N, size=(config.N, 1))
    counts = gen.poisson(lam, size=(config.N, config.num_clusters))
    counts[:, gen.integers(config.num_clusters)] = 0
    return counts


@pytest.mark.parametrize(
    "config",
    [
        make_config(K=40, d=4, N=12, M=2.0),
        make_config(K=30, d=10, N=25, M=0.0),
        make_config(K=16, d=4, N=64, M=1.0, beta=2.0),  # pool 4 < N
        make_config(K=16, d=4, N=64, M=0.5, beta=2.0),  # empty pool
    ],
)
def test_pcd_matches_dense_oracle(config):
    gen = np.random.default_rng(2024)
    d, pool = config.d, coded_pool_size(config)
    crowded = overflow = 0
    for i in range(PROFILES):
        counts = _random_counts(gen, config, per_cluster=d * (0.5 + i % 3))
        profile = RequestProfile.from_counts(counts, config)
        assert pcd_simulate(profile, config) == dense_pcd_simulate(counts, config)
        crowded += (counts.sum(axis=0) > d).any()
        # a cluster matching a request outside the pool unicasts it
        overflow += ((counts[pool:].sum(axis=0) > 0) & (counts[:pool].sum(axis=0) < d)).any()
    assert crowded > 0
    assert overflow > 0 or pool in (0, config.N)


@pytest.mark.parametrize("zero_color", [None, 0, 1])
def test_hcm_matches_dense_oracle(zero_color):
    config = make_config(K=1200, d=400, N=10, M=2.0)
    plan = build_color_plan(config, build_catalog(config.N, config.beta), t=0.0)
    assert plan.chi >= 2
    gen = np.random.default_rng(2025)
    crowded = 0
    for i in range(PROFILES):
        slots = plan.caches_per_color
        if zero_color is not None:
            # small slot counts so matching limits bind; one color gets none
            slots = gen.integers(1, 5, size=plan.chi)
            slots[zero_color] = 0
        trial_plan = dataclasses.replace(plan, caches_per_color=slots)
        counts = _random_counts(gen, config, per_cluster=int(slots.sum()) * (0.5 + i % 3))
        profile = RequestProfile.from_counts(counts, config)
        expected = dense_hcm_simulate(counts, trial_plan, config)
        assert hcm_simulate(profile, trial_plan, config) == expected
        crowded += expected.unmatched_term > 0
    assert crowded > 0


def test_simulators_never_build_dense_counts():
    config = make_config(K=1200, d=400, N=10, M=2.0)
    catalog = build_catalog(config.N, config.beta)
    plan = build_color_plan(config, catalog, t=0.0)
    profile = sample_profile(config, catalog, seed=1, trial=0)
    pcd_simulate(profile, config)
    hcm_simulate(profile, plan, config)
    assert "counts" not in vars(profile)  # the lazy dense view stayed unbuilt
