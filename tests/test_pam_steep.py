import math

import numpy as np
import pytest

from cachematch import montecarlo, pam_steep
from cachematch.config import load_config
from cachematch.errors import DomainError
from cachematch.montecarlo import PAM_STEEP_SCHEME, SCHEMES
from cachematch.pam_steep import (
    KsPlacement,
    build_knapsack,
    mlp_match,
    pam_steep_rate,
    pam_steep_serve,
    solve_fractional_knapsack,
)
from cachematch.popularity import build_catalog
from cachematch.traffic import MATCHING_ROLE, RequestProfile, sample_profile, stream

from conftest import make_config


@pytest.fixture(scope="module")
def steep_config():
    return load_config("configs/steep.json")


@pytest.fixture(scope="module")
def steep_instance(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    return build_knapsack(steep_config, catalog)


def test_knapsack_rejects_shallow_and_tiny_clusters():
    with pytest.raises(DomainError):
        build_knapsack(make_config(beta=0.5), build_catalog(100, 0.5))
    with pytest.raises(DomainError):
        build_knapsack(make_config(K=100, d=1, beta=2.0), build_catalog(100, 2.0))


def test_knapsack_frozen_structure(steep_instance):
    # K=256, d=16, N=256, M=4, beta=2: split points and weight tiers
    assert steep_instance.n1 == 2
    assert steep_instance.n2 == 8
    assert steep_instance.capacity == 64.0
    weights = steep_instance.weights
    assert weights[0] == 16  # most popular file costs a full cluster
    assert weights[1] == 1  # head tier
    assert np.all(weights[2:8] == 16)  # middle tier cost, capped at d
    assert np.all(weights[8:] == 1)  # tail tier
    assert weights.max() <= 16


def test_knapsack_values_decreasing(steep_instance):
    values = steep_instance.values
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(values) <= 1e-15)
    assert np.all((0 < values) & (values <= 1))


def test_knapsack_split_clamp_warns():
    config = make_config(K=2, d=2, N=4, M=1.0, beta=1.5)
    with pytest.warns(RuntimeWarning, match="split points crossed"):
        instance = build_knapsack(config, build_catalog(4, 1.5))
    assert instance.n1 == instance.n2


def test_greedy_solution_structure(steep_instance):
    placement = solve_fractional_knapsack(steep_instance)
    x, copies = placement.x, placement.copies
    assert np.all((0.0 <= x) & (x <= 1.0))
    assert int(np.sum((x > 0) & (x < 1))) <= 1  # at most one fractional file
    assert copies.sum() <= steep_instance.capacity
    assert copies.max() <= steep_instance.cluster_size
    assert set(np.flatnonzero(placement.copies).tolist()) == set(
        [0, 1, 2, 3] + list(range(8, 21))
    )
    assert copies.sum() == 62
    # fully selected files form a prefix of the density order
    density = steep_instance.values / steep_instance.weights
    order = sorted(range(len(density)), key=lambda i: (-density[i], i))
    chosen = set(np.flatnonzero(placement.copies).tolist())
    prefix = set(order[: len(chosen)])
    assert chosen == prefix


def test_greedy_respects_per_cache_slots(steep_config, steep_instance):
    placement = solve_fractional_knapsack(steep_instance)
    per_cache = np.bincount(placement.cache_ids, minlength=steep_config.d)
    assert per_cache.size == steep_config.d and per_cache.max() <= int(steep_config.M)
    for n, caches in enumerate(np.split(placement.cache_ids, placement.cache_starts[1:])):
        assert len(set(caches)) == len(caches) == placement.copies[n]


def _manual_placement():
    # file 0 on caches {0, 1}, file 1 on {1}, file 2 on {2}
    x = np.array([1.0, 1.0, 1.0])
    copies = np.array([2, 1, 1])
    return KsPlacement(
        x=x,
        copies=copies,
        cache_ids=np.array([0, 1, 1, 2]),
        cache_starts=np.array([0, 2, 3]),
    )


def test_mlp_hand_example():
    placement = _manual_placement()
    outcome = mlp_match([2, 1, 1], placement, stream(0, 0, MATCHING_ROLE))
    # scan order 2, 1, 0: every candidate set is forced, so no randomness
    assert outcome.matched == ((2, 2), (1, 1), (0, 0))
    assert outcome.unmatched_requests == 1
    assert outcome.server_files == (0,)


def test_mlp_forced_outcomes_ignore_seed():
    placement = _manual_placement()
    a = mlp_match([2, 1, 1], placement, stream(1, 0, MATCHING_ROLE))
    b = mlp_match([2, 1, 1], placement, stream(99, 7, MATCHING_ROLE))
    assert a == b


def test_mlp_draw_replay():
    # the matcher spends exactly one uniform draw per matched request
    placement = _manual_placement()
    requests = [1, 0, 0]
    rng = stream(42, 0, MATCHING_ROLE)
    outcome = mlp_match(requests, placement, rng)
    replay = stream(42, 0, MATCHING_ROLE)
    want_cache = placement.cache_ids[0:2][int(replay.integers(0, 2))]
    assert outcome.matched == ((0, want_cache),)
    assert outcome.unmatched_requests == 0


def test_mlp_empty_requests():
    outcome = mlp_match([0, 0, 0], _manual_placement(), stream(0, 0, MATCHING_ROLE))
    assert outcome.matched == ()
    assert outcome.unmatched_requests == 0
    assert outcome.server_files == ()


def test_envelope_frozen(steep_config):
    envelope = pam_steep_rate(steep_config)
    assert envelope.order_value == pytest.approx(4.0, rel=1e-13)
    assert not envelope.vanishing_memory_met
    assert envelope.expected_uncached == pytest.approx(10.124627781331935, rel=1e-10)


def test_envelope_order_value_branches():
    # d*M <= 1 falls back to the memory-free exponent K^(1/beta)
    tiny = pam_steep_rate(make_config(K=16, d=4, N=16, M=0.25, beta=2.0))
    assert tiny.order_value == pytest.approx(4.0, rel=1e-13)
    heavy = pam_steep_rate(make_config(K=16, d=4, N=16, M=64.0, beta=2.0))
    assert heavy.order_value == pytest.approx(16 / 256.0, rel=1e-13)
    assert heavy.vanishing_memory_met  # d*M = 256 >= N*log(N) ~ 44.4


def test_scheme_analytic_builds_no_placement(monkeypatch):
    configs = [
        load_config("configs/steep.json"),
        make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        make_config(K=16, d=4, N=16, M=0.25, beta=2.0),
        make_config(K=16, d=4, N=16, M=64.0, beta=2.0),
    ]
    expected = [pam_steep_rate(config).order_value for config in configs]

    def refuse(instance):
        raise AssertionError("placement built")

    monkeypatch.setattr(pam_steep, "solve_fractional_knapsack", refuse)
    monkeypatch.setattr(montecarlo, "solve_fractional_knapsack", refuse)
    for config, want in zip(configs, expected):
        got = SCHEMES[PAM_STEEP_SCHEME].analytic(config, config.t0)
        assert got.hex() == want.hex()


def test_envelope_rejects_shallow(base_config):
    with pytest.raises(DomainError):
        pam_steep_rate(base_config)


def test_serve_hand_example():
    config = make_config(K=3, d=3, N=3, M=1.0, beta=2.0)
    counts = np.array([2, 1, 1], dtype=np.int64).reshape(-1, 1)
    profile = RequestProfile.from_counts(counts, config)
    outcome = pam_steep_serve(profile, _manual_placement(), stream(0, 0, MATCHING_ROLE))
    assert outcome.matched_users == 3
    assert outcome.unmatched_requests == 1
    assert outcome.server_files == 1
    assert outcome.rate == 1.0


def test_serve_request_accounting(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    for trial in range(25):
        profile = sample_profile(steep_config, catalog, seed=31, trial=trial)
        outcome = pam_steep_serve(profile, placement, stream(31, trial, MATCHING_ROLE))
        assert outcome.matched_users + outcome.unmatched_requests == profile.total_users
        assert outcome.server_files <= outcome.unmatched_requests
        assert outcome.rate == outcome.server_files


def test_serve_equals_mlp_over_dense_columns(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    for trial in range(10):
        profile = sample_profile(steep_config, catalog, seed=8, trial=trial)
        rng = stream(8, trial, MATCHING_ROLE)
        outcomes = [mlp_match(column, placement, rng) for column in profile.counts.T]
        served = pam_steep_serve(profile, placement, stream(8, trial, MATCHING_ROLE))
        assert served.matched_users == sum(len(o.matched) for o in outcomes)
        assert served.unmatched_requests == sum(o.unmatched_requests for o in outcomes)
        assert served.server_files == len({n for o in outcomes for n in o.server_files})


def test_serve_is_reproducible(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    profile = sample_profile(steep_config, catalog, seed=5, trial=0)
    first = pam_steep_serve(profile, placement, stream(5, 0, MATCHING_ROLE))
    second = pam_steep_serve(profile, placement, stream(5, 0, MATCHING_ROLE))
    assert first == second
