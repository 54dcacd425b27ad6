import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch import pam_shallow
from cachematch.errors import DomainError, InsufficientMemory
from cachematch.pam_shallow import (
    load_decay_exponent,
    matched_requests,
    memory_threshold,
    pam_shallow_rate,
    pam_shallow_serve,
    proportional_placement,
    rate_formula,
)
from cachematch.popularity import build_catalog
from cachematch.traffic import sample_profile

from conftest import make_config
from oracles import fractional_load, profile_from_counts


def _cache_sets(placement):
    """Caches holding each file, read off the flat arrays."""
    return [s.tolist() for s in np.split(placement.cache_ids, placement.cache_starts[1:])]


def test_memory_threshold(base_config):
    assert memory_threshold(base_config) == pytest.approx(10.0)
    assert memory_threshold(make_config(beta=0.5)) == pytest.approx(20.0)


def test_placement_uniform_hand_example():
    config = make_config(K=10, d=10, N=10, M=2.0)
    placement = proportional_placement(config, build_catalog(10, 0.0))
    assert np.array_equal(placement.copies, np.full(10, 2))
    assert np.array_equal(np.bincount(placement.cache_ids, minlength=10), np.full(10, 2))
    assert all(len(s) == 2 for s in _cache_sets(placement))


def test_placement_below_threshold_raises(base_config):
    with pytest.raises(InsufficientMemory):
        proportional_placement(make_config(M=9.99), build_catalog(100, 0.0))


def test_placement_needs_whole_file_slots():
    # M clears the threshold but floor(M) slots cannot hold every file
    config = make_config(K=10, d=10, N=105, M=10.5)
    assert config.M >= memory_threshold(config)
    with pytest.raises(InsufficientMemory):
        proportional_placement(config, build_catalog(105, 0.0))


def test_placement_rejects_steep():
    with pytest.raises(DomainError):
        proportional_placement(make_config(beta=1.5), build_catalog(100, 1.5))


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=3),
)
def test_placement_invariants(d, beta, extra_memory):
    N = d * 2
    threshold = memory_threshold(make_config(K=d, d=d, N=N, beta=beta, M=1.0))
    M = float(math.ceil(threshold) + extra_memory)
    config = make_config(K=d, d=d, N=N, beta=beta, M=M)
    slots = d * int(math.floor(M))
    placement = proportional_placement(config, build_catalog(N, beta))
    copies = placement.copies
    assert copies.min() >= 1
    assert copies.max() <= d
    assert np.all(np.diff(copies) <= 0)  # popularity order is respected
    # round-robin deal: no cache exceeds its floor(M) whole-file slots
    per_cache = np.bincount(placement.cache_ids, minlength=d)
    assert per_cache.size == d and per_cache.max() <= int(math.floor(M))
    # copies of one file land on distinct caches
    assert all(len(set(s)) == len(s) == copies[n] for n, s in enumerate(_cache_sets(placement)))
    # leftover slots are exhausted unless every file is fully replicated
    if not np.all(copies == d):
        assert copies.sum() == slots
    else:
        assert copies.sum() <= slots


def test_load_decay_exponent_frozen():
    assert load_decay_exponent(0.25, 0.0) == pytest.approx(0.19768170742134694, rel=1e-13)
    assert load_decay_exponent(0.25, 0.5) == pytest.approx(0.09884085371067347, rel=1e-13)
    with pytest.raises(DomainError):
        load_decay_exponent(0.5, 0.0)
    with pytest.raises(DomainError):
        load_decay_exponent(0.25, 1.0)


def test_rate_below_threshold_is_unicast(base_config):
    assert pam_shallow_rate(make_config(M=5.0)) == pytest.approx(25.0)


def test_rate_above_threshold_formula():
    # envelope far above the unicast cap: the min keeps rho*K
    assert pam_shallow_rate(make_config(M=20.0)) == pytest.approx(25.0)
    # large replication: the decay envelope finally wins
    config = make_config(d=50, M=100.0)
    z = load_decay_exponent(0.25, 0.0)
    want = 100 * 100.0 * math.exp(-z * 50 * 100.0 / 100)
    assert want < 25.0
    assert pam_shallow_rate(config) == pytest.approx(want, rel=1e-13)
    assert rate_formula(K=100, N=100, M=100.0, d=50, rho=0.25, beta=0.0) == pytest.approx(want, rel=1e-13)


def test_rate_rejects_steep():
    with pytest.raises(DomainError):
        pam_shallow_rate(make_config(beta=1.2))


def _one_file_per_cache_setup():
    config = make_config(K=3, d=3, N=3, M=1.0)
    placement = proportional_placement(config, build_catalog(3, 0.0))
    assert np.array_equal(placement.copies, [1, 1, 1])
    return config, placement


def _profile(config, column):
    counts = np.array(column, dtype=np.int64).reshape(-1, 1)
    return profile_from_counts(counts, config)


def test_serve_eviction_hand_example():
    config, placement = _one_file_per_cache_setup()
    profile = _profile(config, [2, 0, 0])  # two requests for file 0, load 2 > 1

    whole = pam_shallow_serve(profile, placement, config)
    assert whole.evicted_requests == 2
    assert profile.total_users - whole.evicted_requests == 0
    assert whole.rates.tolist() == [1.0]
    assert not whole.all_feasible


def test_serve_feasible_profile_needs_no_server():
    config, placement = _one_file_per_cache_setup()
    profile = _profile(config, [1, 1, 1])
    outcome = pam_shallow_serve(profile, placement, config)
    assert outcome.all_feasible
    assert profile.total_users - outcome.evicted_requests == 3
    assert outcome.rates.tolist() == [0.0]


def test_feasibility_flag_matches_load_helper():
    # all_feasible holds exactly when every cache load is at most 1
    config = make_config(K=30, d=10, N=20, M=4.0, rho=0.3)
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    owner = np.repeat(np.arange(config.N), placement.copies)  # file behind each cache_ids entry
    for trial in range(40):
        profile = sample_profile(config, seed=9, trial=trial)
        outcome = pam_shallow_serve(profile, placement, config)
        loads = [
            fractional_load(
                [(n, 1.0) for n in owner[placement.cache_ids == k]],
                profile.counts[:, c],
                placement.copies,
            )
            for c in range(config.num_clusters)
            for k in range(config.d)
        ]
        assert outcome.all_feasible == all(load <= 1.0 + 1e-9 for load in loads)


def test_serve_request_accounting():
    config = make_config(K=40, d=10, N=20, M=4.0, rho=0.3)
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    for trial in range(30):
        profile = sample_profile(config, seed=17, trial=trial)
        outcome = pam_shallow_serve(profile, placement, config)
        assert 0 <= outcome.evicted_requests <= profile.total_users
        if outcome.all_feasible:
            assert outcome.evicted_requests == 0
            assert matched_requests(profile, placement, config) == profile.total_users
            assert outcome.rates.tolist() == [0.0]


def test_serve_never_runs_hopcroft_karp(monkeypatch):
    config = make_config(K=40, d=10, N=20, M=4.0, rho=0.3)
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    profiles = [sample_profile(config, seed=23, trial=t) for t in range(30)]
    feasible = [p for p in profiles if pam_shallow_serve(p, placement, config).all_feasible]
    assert 0 < len(feasible) < len(profiles)  # both branches run below

    def refuse(graph):
        raise AssertionError("Hopcroft-Karp ran")

    monkeypatch.setattr(pam_shallow, "max_matching", refuse)
    for profile in profiles:
        pam_shallow_serve(profile, placement, config)
    # the checker, by contrast, calls it through pam_shallow's own name
    with pytest.raises(AssertionError, match="Hopcroft-Karp ran"):
        matched_requests(feasible[0], placement, config)


def test_survivors_always_match():
    # the load condition guarantees a perfect matching of surviving requests
    config = make_config(K=40, d=10, N=20, M=4.0, rho=0.3)
    catalog = build_catalog(config.N, config.beta)
    placement = proportional_placement(config, catalog)
    cache_sets = _cache_sets(placement)
    for trial in range(60):
        profile = sample_profile(config, seed=23, trial=trial)
        outcome = pam_shallow_serve(profile, placement, config)
        survivors = profile.counts.copy()
        for c in range(config.num_clusters):
            for k in range(config.d):
                stored = [n for n in range(config.N) if k in cache_sets[n]]
                load = fractional_load(
                    [(n, 1.0) for n in stored], profile.counts[:, c], placement.copies
                )
                if load > 1.0 + 1e-9:
                    survivors[stored, c] = 0  # evict every file on a violating cache
        surviving = profile_from_counts(survivors, config)
        assert surviving.total_users == profile.total_users - outcome.evicted_requests
        assert matched_requests(surviving, placement, config) == surviving.total_users
