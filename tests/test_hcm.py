import math

import numpy as np
import pytest

from cachematch.errors import DomainError
from cachematch.hcm import (
    build_color_plan,
    compute_chi,
    hcm_rate,
    hcm_simulate,
    popularity_split_gain,
    unicast_fallback,
    unmatched_chain_bound,
)
from cachematch.mathkit import SQRT_TWO_PI
from cachematch.montecarlo import blocks
from cachematch.pcd import pcd_rate_shallow, pcd_simulate
from cachematch.popularity import build_catalog

from conftest import make_config
from oracles import profile_from_counts

# d large relative to log K so the plan gets chi = 10 colors
WIDE = dict(K=100, d=1000, N=100, M=10.0, rho=0.25, t0=1.0)


def test_split_gain_frozen():
    assert popularity_split_gain(0.0) == pytest.approx(0.5, rel=1e-14)
    assert popularity_split_gain(0.5) == pytest.approx(0.3660254037844386, rel=1e-13)
    with pytest.raises(DomainError):
        popularity_split_gain(1.0)
    with pytest.raises(DomainError):
        popularity_split_gain(-0.1)


def test_compute_chi_frozen():
    assert compute_chi(make_config(**WIDE), 0.0) == 10
    assert compute_chi(make_config(**WIDE), 1.0) == 5
    # slack outside [0, t0] is rejected
    with pytest.raises(DomainError):
        compute_chi(make_config(**WIDE), 1.5)
    with pytest.raises(DomainError):
        compute_chi(make_config(**WIDE), -0.1)
    with pytest.raises(DomainError):
        compute_chi(make_config(beta=2.0), 0.5)


def test_single_color_fallback():
    config = make_config(rho=0.001)  # alpha large: log K < 2*g*alpha
    assert unicast_fallback(config)
    assert compute_chi(config, 0.5) == 1
    assert not unicast_fallback(make_config())


def test_color_plan_structure():
    config = make_config(K=100, d=300, N=10, M=2.0)
    plan = build_color_plan(config, build_catalog(10, 0.0), t=0.0)
    assert plan.chi == 3
    assert np.array_equal(plan.file_color, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    assert np.array_equal(plan.class_sizes, [4, 3, 3])
    assert plan.class_mass == pytest.approx([0.4, 0.3, 0.3], rel=1e-12)
    assert np.array_equal(plan.caches_per_color, [120, 90, 90])
    assert plan.caches_per_color.sum() == config.d  # no cache left colorless
    assert not unicast_fallback(config)


def test_color_plan_colorless_caches():
    config = make_config(**WIDE)
    plan = build_color_plan(config, build_catalog(100, 0.0), t=0.0)
    assert plan.chi == 10
    assert plan.caches_per_color.sum() <= config.d  # the rest stay colorless


def test_color_plan_rejects_catalog_mismatch():
    config = make_config(**WIDE)
    with pytest.raises(DomainError):
        build_color_plan(config, build_catalog(99, 0.0), t=0.0)


def test_rate_exact_branch_frozen():
    # M >= ceil(N/chi): only the unmatched tail remains
    config = make_config(**WIDE)
    assert hcm_rate(config, 0.0) == 1.0 / SQRT_TWO_PI
    # at t = 1 the plan drops to chi = 5, so the branch needs M >= 20
    assert hcm_rate(make_config(**{**WIDE, "M": 20.0}), 1.0) == pytest.approx(
        100.0**-1.0 / SQRT_TWO_PI, rel=1e-14
    )


def test_rate_branches():
    # M = 0: pure unicast
    assert hcm_rate(make_config(**{**WIDE, "M": 0.0}), 0.0) == pytest.approx(25.0)
    # M <= floor(N/chi): N/M - chi + tail
    low = make_config(**{**WIDE, "M": 5.0})
    assert hcm_rate(low, 0.0) == pytest.approx(
        100 / 5.0 - 10 + 1.0 / SQRT_TWO_PI, rel=1e-13
    )
    # floor(N/chi) < M < ceil(N/chi): only the leftover classes still pay
    mid = make_config(**{**WIDE, "N": 105, "M": 10.5})
    want = 5 * (11.0 / 10.5 - 1.0) + 1.0 / SQRT_TWO_PI
    assert hcm_rate(mid, 0.0) == pytest.approx(want, rel=1e-13)


def test_rate_unicast_cap():
    # the coded branch can never exceed the unicast fallback
    config = make_config(**{**WIDE, "M": 0.01})
    assert hcm_rate(config, 0.0) == pytest.approx(25.0)


def test_rate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        hcm_rate(make_config(beta=1.5), 0.0)
    with pytest.raises(DomainError):
        hcm_rate(make_config(), 2.0)


def test_unmatched_chain_bound():
    config = make_config(**WIDE)
    plan = build_color_plan(config, build_catalog(100, 0.0), t=0.0)
    base = 2 * config.rho * math.exp(1 - 2 * config.rho)
    want = (
        config.K
        * sum(
            float(plan.class_mass[x]) * base ** int(plan.caches_per_color[x])
            for x in range(plan.chi)
        )
        / SQRT_TWO_PI
    )
    assert unmatched_chain_bound(plan, config) == pytest.approx(want, rel=1e-12)


def test_dominates_pcd_on_grid():
    # color matching refines cluster matching: analytic rate never worse
    for M in (0.0, 2.0, 5.0, 10.0, 25.0, 100.0):
        for rho in (0.1, 0.25, 0.4):
            for beta in (0.0, 0.5, 0.9):
                config = make_config(**{**WIDE, "M": M, "rho": rho, "beta": beta})
                assert hcm_rate(config, config.t0) <= pcd_rate_shallow(config)


def test_simulate_hand_example():
    # single cluster of 400 caches, chi = 3, caches per color [160, 120, 120]
    config = make_config(K=400, d=400, N=10, M=2.0)
    plan = build_color_plan(config, build_catalog(10, 0.0), t=0.0)
    assert plan.chi == 3
    assert np.array_equal(plan.caches_per_color, [160, 120, 120])
    counts = np.zeros((10, 1), dtype=np.int64)
    counts[0, 0] = 161  # one more request for file 0 than color 0 has caches
    profile = profile_from_counts(counts, config)
    total, coded, unmatched = hcm_simulate(profile, plan)[0]
    assert unmatched == 1.0
    assert coded > 0.0
    assert total == pytest.approx(coded + 1.0, rel=1e-12)


def test_simulate_respects_user_clamp():
    config = make_config(K=4, d=2, N=4, M=0.0)
    catalog = build_catalog(4, 0.0)
    plan = build_color_plan(config, catalog, t=0.0)
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[0, 0] = 1
    profile = profile_from_counts(counts, config)
    total, coded, unmatched = hcm_simulate(profile, plan)[0]
    assert total <= profile.total_users


# --- exact masses keep every cache: float sums of P_x once landed just below
# an exact d * P_x (0.4999999999999782 per color, and 0.9999999999999998 for
# one color at beta = .1), losing a cache


def test_two_color_split_of_equal_masses_sums_to_d():
    config = make_config(K=6000, d=60, N=6000, M=16.0, rho=0.05, t0=0.2)
    plan = build_color_plan(config, build_catalog(config.N, config.beta), t=config.t0)
    assert plan.chi == 2
    assert plan.caches_per_color.sum() == config.d


@pytest.mark.parametrize("fields, seed, trials, crowded", [
    (dict(K=600, d=60, N=600, M=2.0, rho=0.1, beta=0.1, t0=1.0), 1, 50, 0),
    (dict(K=4, d=2, N=4, M=1.0), 13, 20, 0),
    # every trial has a cluster over d, so every block takes the rank mask
    (dict(K=600, d=2, N=600, M=2.0, rho=0.4, beta=0.5, t0=1.0), 5, 200, 200),
], ids=["no-cluster-over-d", "four-caches", "every-trial-over-d"])
def test_one_color_plan_rows_equal_pcd_rows(fields, seed, trials, crowded):
    # with chi = 1 the color plan degenerates to plain cluster matching
    config = make_config(**fields)
    plan = build_color_plan(config, build_catalog(config.N, config.beta), t=config.t0)
    assert plan.chi == 1
    pcd_rows = [pcd_simulate(block) for _, block in blocks(config, seed, 0, trials)]
    hcm_rows = [hcm_simulate(block, plan) for _, block in blocks(config, seed, 0, trials)]
    assert [rows.tobytes() for rows in hcm_rows] == [rows.tobytes() for rows in pcd_rows]
    assert np.count_nonzero(np.concatenate(pcd_rows)[:, 2]) == crowded


def test_uniform_plan_caches_are_integer_floors():
    # at beta = 0, P_x = |W_x| / N exactly, so floor(d * P_x) is an integer division
    for K, d, N in ((6000, 60, 6000), (2000, 200, 999), (4096, 300, 777)):
        config = make_config(K=K, d=d, N=N, M=16.0, rho=0.05, t0=0.2)
        plan = build_color_plan(config, build_catalog(N, 0.0), t=0.0)
        assert plan.chi >= 2
        assert plan.caches_per_color.tolist() == (d * plan.class_sizes // N).tolist()
