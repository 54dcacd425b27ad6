import math

import numpy as np
import pytest

from cachematch import montecarlo, pam_steep
from cachematch.config import load_config
from cachematch.errors import DomainError
from cachematch.montecarlo import PAM_STEEP_SCHEME, SCHEMES
from cachematch.matching import deal_round_robin
from cachematch.pam_steep import (
    KnapsackInstance,
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


def _reference_dense_mlp(requests, placement, rng):
    """Dense most-popular-last matching, written independently of the run
    matcher: scan every file index from the last down, re-filter the free
    caches before each request, and draw one uniform per matched request.
    Returns (matched requests, unmatched requests, files sent by the server)."""
    free = set(placement.cache_ids.tolist())
    matched, unmatched, server = 0, 0, set()
    for n in range(len(requests) - 1, -1, -1):
        start = int(placement.cache_starts[n])
        holders = placement.cache_ids[start:start + int(placement.copies[n])].tolist()
        for _ in range(int(requests[n])):
            cand = [k for k in holders if k in free]
            if not cand:
                unmatched += 1
                server.add(n)
                continue
            free.discard(cand[int(rng.integers(0, len(cand)))])
            matched += 1
    return matched, unmatched, server


def _random_placement(gen, n_files, d):
    """Each file on 0, 1, a few or all d caches of the cluster."""
    copies = np.minimum(gen.choice([0, 1, 2, 3, d], size=n_files, p=[0.3, 0.3, 0.15, 0.1, 0.15]), d)
    sets = [np.sort(gen.choice(d, size=c, replace=False)) for c in copies]
    return KsPlacement(
        x=np.zeros(n_files),
        copies=copies.astype(np.int64),
        cache_ids=np.concatenate(sets).astype(np.int64),
        cache_starts=np.cumsum(copies) - copies,
    )


def _state(rng):
    """The bit generator's full state, with its arrays as lists."""
    state = rng.bit_generator.state
    flat = {**state, **state["state"]}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in flat.items() if k != "state"}


def test_serve_replays_dense_matching_draw_for_draw(monkeypatch):
    def refuse(profile):
        raise AssertionError("dense counts built")

    monkeypatch.setattr(RequestProfile, "counts", property(refuse))
    gen = np.random.default_rng(2017)
    seen = dict(empty_cluster=0, uncached_request=0, one_copy_request=0, crowded_file=0)
    for i in range(240):
        d = int(gen.integers(2, 9))
        clusters = int(gen.integers(1, 6))
        config = make_config(K=d * clusters, d=d, N=d * clusters + int(gen.integers(0, 12)),
                             M=1.0, beta=2.0)
        placement = _random_placement(gen, config.N, d)
        counts = gen.poisson(gen.choice([0.05, 0.3, 1.5]), size=(config.N, clusters))
        if gen.random() < 0.4:
            counts[:, gen.integers(clusters)] = 0
        profile = RequestProfile.from_counts(counts, config)

        rng = stream(i, 3, MATCHING_ROLE)
        served = pam_steep_serve(profile, placement, rng)

        oracle_rng = stream(i, 3, MATCHING_ROLE)
        matched, unmatched, server = 0, 0, set()
        for column in counts.T:
            m, u, files = _reference_dense_mlp(column, placement, oracle_rng)
            matched, unmatched, server = matched + m, unmatched + u, server | files
        assert (served.server_files, served.matched_users, served.unmatched_requests) == (
            len(server), matched, unmatched)
        assert served.rate == float(len(server))
        assert _state(rng) == _state(oracle_rng)

        # the dense adapter replays the same draws, cluster by cluster
        adapter_rng = stream(i, 3, MATCHING_ROLE)
        outcomes = [mlp_match(column, placement, adapter_rng) for column in counts.T]
        assert sum(len(o.matched) for o in outcomes) == matched
        assert sum(o.unmatched_requests for o in outcomes) == unmatched
        assert {n for o in outcomes for n in o.server_files} == server
        assert _state(adapter_rng) == _state(oracle_rng)

        requested = counts.sum(axis=1)
        seen["empty_cluster"] += bool((counts.sum(axis=0) == 0).any())
        seen["uncached_request"] += bool(((requested > 0) & (placement.copies == 0)).any())
        seen["one_copy_request"] += bool(((requested > 0) & (placement.copies == 1)).any())
        crowded = (counts > placement.copies[:, None]) & (placement.copies[:, None] > 0)
        seen["crowded_file"] += bool(crowded.any())
    assert min(seen.values()) >= 20, seen


def _sorted_greedy(instance):
    """The greedy fill with its ratio order from Python's sorted(): the order
    np.argsort(kind="stable") replaced."""
    v, w = instance.values, instance.weights
    order = sorted(range(len(v)), key=lambda i: (-(v[i] / w[i]), i))
    x = np.zeros(len(v))
    remaining = instance.capacity
    for i in order:
        if remaining <= 0:
            break
        if w[i] <= remaining:
            x[i] = 1.0
            remaining -= float(w[i])
        else:
            x[i] = remaining / float(w[i])
            remaining = 0.0
    copies = np.where(x == 1.0, w, 0).astype(np.int64)
    return (x, copies) + deal_round_robin(copies, instance.cluster_size)


def _instance(values, weights, capacity, d=4):
    return KnapsackInstance(
        values=np.asarray(values, dtype=np.float64),
        weights=np.asarray(weights, dtype=np.int64),
        capacity=float(capacity),
        cluster_size=d,
        n1=1,
        n2=1,
    )


def _assert_same_greedy(instance):
    placement = solve_fractional_knapsack(instance)
    got = (placement.x, placement.copies, placement.cache_ids, placement.cache_starts)
    for a, b in zip(got, _sorted_greedy(instance)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("capacity", [0, 4, 5, 4.5, 7, 100])
def test_knapsack_order_matches_sorted_on_hand_instances(capacity):
    # every ratio ties at 0.25, so index order decides; 5 fits 0-2 exactly,
    # 4.5 leaves file 2 fractional, 0 selects nothing
    _assert_same_greedy(_instance([0.5, 0.5, 0.25, 1.0], [2, 2, 1, 4], capacity))
    # mixed ratios with a tie between files 1 and 3
    _assert_same_greedy(_instance([0.9, 0.6, 0.1, 0.3, 0.7], [3, 2, 1, 1, 4], capacity))


@pytest.mark.filterwarnings("ignore:split points crossed")
def test_knapsack_order_matches_sorted_on_random_instances():
    gen = np.random.default_rng(7)
    fractional = exact = 0
    for _ in range(150):
        n_files, d = int(gen.integers(1, 40)), int(gen.integers(1, 9))
        values = gen.choice([0.05, 0.1, 0.2, 0.4, 0.8, 1.0], size=n_files)  # many ties
        if gen.random() < 0.5:
            values = gen.random(n_files)
        weights = gen.integers(1, d + 1, size=n_files)
        prefix = np.cumsum(weights[np.argsort(-(values / weights), kind="stable")])
        capacity = gen.choice([0.0, float(prefix[gen.integers(n_files)]),
                               float(gen.uniform(0, weights.sum() + 2))])
        placement = solve_fractional_knapsack(_instance(values, weights, capacity, d))
        fractional += bool(((placement.x > 0) & (placement.x < 1)).any())
        exact += placement.copies.sum() == capacity > 0
        _assert_same_greedy(_instance(values, weights, capacity, d))
    for _ in range(30):
        d = int(gen.choice([2, 4, 8, 16]))
        config = make_config(K=d * int(gen.integers(1, 9)), d=d, N=int(gen.integers(16, 300)),
                             M=float(gen.choice([0.5, 1.0, 3.0, 8.0])), beta=float(gen.uniform(1.1, 3)))
        _assert_same_greedy(build_knapsack(config, build_catalog(config.N, config.beta)))
    assert fractional > 10 and exact > 10
