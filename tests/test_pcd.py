import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch.delivery import coded_delivery_rate
from cachematch.errors import DomainError
from cachematch.mathkit import SQRT_TWO_PI
from cachematch.pcd import (
    cluster_unmatched_bound,
    coded_pool_size,
    pcd_rate_shallow,
    pcd_rate_steep,
    pcd_simulate,
    rate_shallow_formula,
    rate_steep_formula,
    unmatched_tail_term,
)
from cachematch.traffic import sample_profile

from conftest import make_config
from oracles import profile_from_counts


def test_unmatched_tail_term_frozen():
    assert unmatched_tail_term(100, 1.0) == pytest.approx(0.003989422804014328, rel=1e-13)
    assert unmatched_tail_term(100, 0.0) == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-13)


def test_cluster_unmatched_bound(base_config):
    want = 100 * (0.25 * math.exp(0.75)) ** 10 / SQRT_TWO_PI
    assert cluster_unmatched_bound(base_config) == pytest.approx(want, rel=1e-12)
    assert cluster_unmatched_bound(base_config) > 0


def test_shallow_rate_frozen(base_config):
    rate = pcd_rate_shallow(base_config)
    # coded term N/M - 1 = 9 plus the unmatched tail K^(-t0)/sqrt(2*pi)
    assert rate - unmatched_tail_term(100, 1.0) == pytest.approx(9.0, rel=1e-14)
    assert rate == pytest.approx(9.003989422804015, rel=1e-13)


def test_shallow_rate_edges():
    zero_mem = rate_shallow_formula(K=100, N=100, M=0, rho=0.25, t0=1.0)
    assert zero_mem == 25.0  # no memory: unicast to every user, rho*K
    full_mem = rate_shallow_formula(K=100, N=100, M=100, rho=0.25, t0=1.0)
    assert full_mem == unmatched_tail_term(100, 1.0)  # the coded term is 0
    clamped = rate_shallow_formula(K=100, N=100, M=0.5, rho=0.25, t0=1.0)
    assert clamped == pytest.approx(25.0)  # unicast fallback wins


def test_shallow_rejects_steep(base_config):
    with pytest.raises(DomainError):
        pcd_rate_shallow(make_config(beta=1.5))
    with pytest.raises(DomainError):
        pcd_rate_steep(base_config)


def test_steep_rate_frozen():
    # below unit memory: K^(1/beta) = 10 with no unmatched tail
    assert pcd_rate_steep(make_config(beta=2.0, M=0.5)) == pytest.approx(10.0, rel=1e-14)

    unit = pcd_rate_steep(make_config(beta=2.0, M=1.0))
    # coded term (K*M)^(1/beta)/M - 1 = 9 plus the unmatched tail
    assert unit - unmatched_tail_term(100, 1.0) == pytest.approx(9.0, rel=1e-13)
    assert unit == pytest.approx(9.003989422804015, rel=1e-13)


def test_steep_branch_continuity():
    # pooled branch meets the plain branch at M = N^beta / K
    boundary = 100.0**2 / 100.0
    at = rate_steep_formula(K=100, N=100, M=boundary, rho=0.25, beta=2.0, t0=1.0)
    below = rate_steep_formula(K=100, N=100, M=boundary - 1e-7, rho=0.25, beta=2.0, t0=1.0)
    assert at == pytest.approx(below, abs=1e-6)


def test_steep_discontinuity_at_unit_memory_is_one():
    # coded terms differ by exactly one transmission across M = 1, where the
    # unmatched tail joins the rate: it falls by 1 - K^(-t0)/sqrt(2*pi)
    below = rate_steep_formula(K=100, N=100, M=0.999999999, rho=0.4, beta=2.0, t0=1.0)
    at = rate_steep_formula(K=100, N=100, M=1.0, rho=0.4, beta=2.0, t0=1.0)
    assert below - at == pytest.approx(1.0 - unmatched_tail_term(100, 1.0), abs=1e-6)


@settings(max_examples=60)
@given(st.floats(min_value=1.05, max_value=4.0), st.floats(min_value=0.05, max_value=0.45))
def test_rates_nonincreasing_in_memory(beta, rho):
    grid = [0.0, 0.3, 0.7, 1.0, 2.0, 5.0, 20.0, 50.0, 100.0]
    steep = [
        rate_steep_formula(K=100, N=100, M=m, rho=rho, beta=beta, t0=1.0)
        for m in grid
    ]
    assert all(a >= b - 1e-12 for a, b in zip(steep, steep[1:]))
    shallow = [
        rate_shallow_formula(K=100, N=100, M=m, rho=rho, t0=1.0) for m in grid
    ]
    assert all(a >= b - 1e-12 for a, b in zip(shallow, shallow[1:]))


def test_coded_pool_size():
    assert coded_pool_size(make_config(beta=0.0)) == 100
    assert coded_pool_size(make_config(beta=2.0, M=0.5)) == 0
    assert coded_pool_size(make_config(beta=2.0, M=4.0)) == 20
    assert coded_pool_size(make_config(beta=2.0, M=1e9)) == 100  # capped at N


def _profile(config, counts):
    arr = np.array(counts, dtype=np.int64)
    return profile_from_counts(arr, config)


def test_simulate_hand_example_shallow():
    config = make_config(K=4, d=2, N=4, M=1.0)
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[0, 0] = 1  # cluster 0: one request for file 0 ...
    counts[1, 0] = 2  # ... two for file 1; only d = 2 get matched
    counts[2, 1] = 1
    total, coded, unmatched = pcd_simulate(_profile(config, counts), config)[0]
    # matched distinct files {0, 1, 2}; t = K*M/N = 1
    want_coded = coded_delivery_rate(4, 1.0, 4, 3)
    assert want_coded == pytest.approx(1.5, rel=1e-12)
    assert coded == pytest.approx(1.5, rel=1e-12)
    assert unmatched == 1.0
    assert total == pytest.approx(2.5, rel=1e-12)


def test_simulate_hand_example_steep_overflow():
    # pool = floor((K*M)^(1/beta)) = 2: file 3 is served by unicast
    config = make_config(K=4, d=2, N=4, M=1.0, beta=2.0)
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[0, 0] = 1
    counts[3, 1] = 2
    total, coded, unmatched = pcd_simulate(_profile(config, counts), config)[0]
    want_coded = coded_delivery_rate(4, 1.0, 2, 1)
    assert coded == pytest.approx(want_coded + 2.0, rel=1e-12)
    assert unmatched == 0.0
    assert total == pytest.approx(want_coded + 2.0, rel=1e-12)


def test_simulate_total_clamped_by_users():
    config = make_config(K=4, d=2, N=4, M=0.0)
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[0, 0] = 1
    counts[1, 0] = 2
    counts[2, 1] = 1
    total, coded, unmatched = pcd_simulate(_profile(config, counts), config)[0]
    assert total == 4.0  # never exceeds the number of users


def test_simulate_empty_profile():
    config = make_config(K=4, d=2, N=4, M=1.0)
    total, coded, unmatched = pcd_simulate(_profile(config, np.zeros((4, 2), dtype=np.int64)), config)[0]
    assert total == 0.0
    assert unmatched == 0.0


def test_simulate_mean_below_analytic(base_config):
    # cheap seeded check; the acceptance suite runs the full-size version
    totals = [
        pcd_simulate(sample_profile(base_config, seed=3, trial=t), base_config)[0, 0]
        for t in range(200)
    ]
    mean = float(np.mean(totals))
    sigma = float(np.std(totals, ddof=1)) / math.sqrt(len(totals))
    assert mean <= pcd_rate_shallow(base_config) + 3 * sigma
