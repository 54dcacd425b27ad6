"""Differential tests: first-d matching on sorted request lists.

Two kinds of oracle.  The dense ones are cumulative sums over the full
N x K/d count matrix.  The reference kernels are the per-trial accounting
that the vector kernels replaced: a rank mask over every cluster
(oracles.trial_pcd_simulate), one mask, rank and Python set per hcm color,
the evictions of one trial (oracles.trial_pam_shallow_serve), and a sampler
that concatenates its offsets and sorts into a new array.  On the same
input every kernel must give bitwise-equal results and draws.  The
kernels score blocks of trials: each profile is scored as a block of one, and
the pcd and pam-shallow profiles of a test also as one joined block.
"""

import dataclasses

import numpy as np
import pytest

from cachematch.delivery import coded_delivery_rate
from cachematch.hcm import build_color_plan, hcm_simulate
from cachematch.pam_shallow import pam_shallow_serve, proportional_placement
from cachematch.pcd import coded_pool_size, pcd_simulate
from cachematch.popularity import build_catalog
from cachematch.traffic import PROFILE_ROLE, sample_profile, stream

from conftest import make_config
from oracles import (first_in_file_order, join_profiles, profile_from_counts,
                     trial_pam_shallow_serve, trial_pcd_simulate)

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
    coded += int(matched[pool:].sum())  # overflow unicasts

    total = min(coded + unmatched_users, float(u.sum()))
    return [float(total), coded, float(unmatched_users)]


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
    return [total, coded, float(unmatched)]


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
    profiles, rows = [], []
    for i in range(PROFILES):
        counts = _random_counts(gen, config, per_cluster=d * (0.5 + i % 3))
        profiles.append(profile_from_counts(counts, config))
        rows.append(dense_pcd_simulate(counts, config))
        assert pcd_simulate(profiles[-1], config).tolist() == rows[-1:]
        crowded += (counts.sum(axis=0) > d).any()
        # a cluster matching a request outside the pool unicasts it
        overflow += ((counts[pool:].sum(axis=0) > 0) & (counts[:pool].sum(axis=0) < d)).any()
    assert pcd_simulate(join_profiles(profiles), config).tolist() == rows
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
        profile = profile_from_counts(counts, config)
        expected = dense_hcm_simulate(counts, trial_plan, config)
        assert hcm_simulate(profile, trial_plan, config).tolist() == [expected]
        crowded += expected[2] > 0
    assert crowded > 0


def test_simulators_never_build_dense_counts():
    config = make_config(K=1200, d=400, N=10, M=2.0)
    catalog = build_catalog(config.N, config.beta)
    plan = build_color_plan(config, catalog, t=0.0)
    profile = sample_profile(config, seed=1, trial=0)
    pcd_simulate(profile, config)
    hcm_simulate(profile, plan, config)
    assert "counts" not in vars(profile)  # the lazy dense view stayed unbuilt


def reference_hcm_simulate(profile, plan, config):
    files = profile.files
    chi = plan.chi
    clusters = config.num_clusters
    color = plan.file_color[files]
    key = color * clusters + profile.cluster_of_request()
    color_totals = np.bincount(key, minlength=chi * clusters).reshape(chi, clusters)
    unmatched = int(np.maximum(color_totals - plan.caches_per_color[:, None], 0).sum())
    coded = 0.0
    for x in range(chi):
        m_x = int(plan.caches_per_color[x])
        if m_x == 0:
            continue
        matched = first_in_file_order(files[color == x], color_totals[x], m_x)
        distinct = len(set(matched.tolist()))
        coded += coded_delivery_rate(m_x * clusters, config.M, int(plan.class_sizes[x]), distinct)
    total = min(coded + unmatched, float(profile.total_users))
    return [total, coded, float(unmatched)]


def reference_draw(config, catalog, seed, trial):
    """(offsets, files) of one profile, drawn as SAMPLER_VERSION 3 defines it,
    and the uniforms its file ids were searched for."""
    rng = stream(seed, trial, PROFILE_ROLE)
    totals = rng.poisson(config.rho * config.d, size=config.num_clusters)
    u = rng.random(totals.sum())
    files = np.searchsorted(catalog.cdf[:-1], u, side="right")
    base = np.repeat(np.arange(config.num_clusters) * config.N, totals)
    keys = np.sort(files + base)
    return np.concatenate(([0], np.cumsum(totals))), keys - base, u


REFERENCE_PROFILES = 150  # random profiles per configuration, at least 700 in all


def _varied_counts(gen, config, i, per_cluster):
    """Counts whose crowding varies with i.  Every 25th profile holds no
    request; past one cluster, one random cluster of each profile is empty."""
    shape = (config.N, config.num_clusters)
    if i % 25 == 0:
        return np.zeros(shape, dtype=np.int64)
    scale = per_cluster * (0.25 + i % 4 / 2)
    counts = gen.poisson(gen.uniform(0.0, 2.0 * scale / config.N, size=(config.N, 1)), size=shape)
    if config.num_clusters > 1:
        counts[:, gen.integers(config.num_clusters)] = 0
    return counts


@pytest.mark.parametrize(
    "config",
    [
        make_config(K=40, d=4, N=12, M=2.0),
        make_config(K=30, d=10, N=25, M=0.0),
        make_config(K=16, d=4, N=64, M=1.0, beta=2.0),  # pool 4 < N
        make_config(K=16, d=4, N=64, M=0.5, beta=2.0),  # pool 0
        make_config(K=8, d=8, N=20, M=3.0),  # K = d: a single cluster
    ],
)
def test_pcd_matches_reference_kernel(config):
    gen = np.random.default_rng(7)
    crowded = roomy = 0
    profiles, rows = [], []
    for i in range(REFERENCE_PROFILES):
        counts = _varied_counts(gen, config, i, config.d)
        profiles.append(profile_from_counts(counts, config))
        rows.append(list(trial_pcd_simulate(profiles[-1], config)))
        assert pcd_simulate(profiles[-1], config).tolist() == rows[-1:]
        over = (counts.sum(axis=0) > config.d).any()
        crowded += over
        roomy += not over
    assert pcd_simulate(join_profiles(profiles), config).tolist() == rows
    assert crowded > 0 and roomy > 0  # both the rank mask and the pass-through ran


@pytest.mark.parametrize("zero_color", [None, 0, 2])
def test_hcm_matches_reference_kernel(zero_color):
    # few files per color, so small random caps bind
    config = make_config(K=3000, d=1000, N=60, M=2.0, rho=0.25)
    plan = build_color_plan(config, build_catalog(config.N, config.beta), t=0.5)
    assert plan.chi == 4
    gen = np.random.default_rng(11)
    crowded = roomy = 0
    for i in range(REFERENCE_PROFILES):
        slots = gen.integers(1, 6, size=plan.chi)
        if zero_color is not None:
            slots[zero_color] = 0  # that color's users all go unmatched
        trial_plan = dataclasses.replace(plan, caches_per_color=slots)
        counts = _varied_counts(gen, config, i, int(slots.sum()))
        profile = profile_from_counts(counts, config)
        expected = reference_hcm_simulate(profile, trial_plan, config)
        assert hcm_simulate(profile, trial_plan, config).tolist() == [expected]
        crowded += expected[2] > 0
        roomy += expected[2] == 0
    assert crowded > 0 and roomy > 0


def test_pam_shallow_serve_matches_reference_kernel():
    config = make_config(K=40, d=4, N=12, M=6.0, beta=0.5)
    placement = proportional_placement(config, build_catalog(config.N, config.beta))
    gen = np.random.default_rng(13)
    feasible = evicting = 0
    profiles, expected = [], []
    for i in range(REFERENCE_PROFILES):
        counts = _varied_counts(gen, config, i, config.d)
        profiles.append(profile_from_counts(counts, config))
        expected.append(trial_pam_shallow_serve(profiles[-1], placement, config))
        out = pam_shallow_serve(profiles[-1], placement, config)
        evicted, all_feasible, rate = expected[-1]
        assert (out.evicted_requests, out.all_feasible, out.rates.tolist()) == (evicted, all_feasible, [rate])
        feasible += all_feasible
        evicting += rate > 1
    block = pam_shallow_serve(join_profiles(profiles), placement, config)
    assert block.evicted_requests == sum(e for e, _, _ in expected)
    assert not block.all_feasible
    assert block.rates.tolist() == [rate for _, _, rate in expected]
    assert feasible > 0 and evicting > 0


@pytest.mark.parametrize(
    "config",
    [
        make_config(),
        make_config(K=10, d=10, N=10, rho=0.01),  # K = d, and most trials draw nothing
        make_config(K=64, d=4, N=300, rho=0.45, beta=0.8),
        make_config(K=40, d=10, N=5, rho=0.45),  # neighbouring clusters ask for files N-1 and 0
        make_config(K=256, d=16, N=256, M=4.0, rho=0.1, beta=2.0),
        # steep tails pack several breakpoints into one guide bucket
        make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        make_config(K=512, d=16, N=2048, M=2.0, rho=0.25, beta=3.0),
    ],
)
def test_sampler_draws_match_reference(cold_memo, config):
    catalog = build_catalog(config.N, config.beta)
    empty = searched = 0
    for seed in (0, 5, 2**63 + 1):
        for trial in range(12):
            offsets, files, u = reference_draw(config, catalog, seed, trial)
            searched += np.count_nonzero(catalog.crowded[(u * catalog.guide.size).astype(np.intp)])
            profile = sample_profile(config, seed, trial)
            for got, want in ((profile.offsets, offsets), (profile.files, files)):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
            empty += profile.total_users == 0
    assert empty > 0 or config.rho > 0.01
    assert searched > 0 or config.beta == 0  # the crowded-bucket search ran
