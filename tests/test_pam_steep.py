import dataclasses
import math
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch import montecarlo, traffic
from cachematch.config import load_config
from cachematch.errors import DomainError
from cachematch.montecarlo import PAM_STEEP_SCHEME, SCHEMES
from cachematch.matching import deal_round_robin
from cachematch.pam_steep import (
    KnapsackInstance,
    KsPlacement,
    _walk_runs,
    build_knapsack,
    cluster_matchings,
    mlp_match,
    pam_steep_serve,
    solve_fractional_knapsack,
    steep_order_value,
)
from cachematch.popularity import build_catalog
from cachematch.traffic import MATCHING_ROLE, RequestProfile, sample_profile, stream

from conftest import generator_state, make_config
from oracles import (join_profiles, loop_knapsack_fill, parent_pam_steep_serve, profile_from_counts,
                     walk_pam_steep_serve)


def serve_one(profile, placement, rng):
    """pam_steep_serve of `profile` as a block of one trial, drawing from rng."""
    out = pam_steep_serve(profile, placement, [rng])
    return SimpleNamespace(unmatched_requests=int(out.unmatched_requests[0]), rate=float(out.rates[0]))


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


def test_knapsack_split_warning_names_its_config_and_source():
    # a CLI user sees where the split crossed, not the scheme table's prepare
    config = dataclasses.replace(load_config("configs/steep.json"), d=2)
    with pytest.warns(RuntimeWarning, match="split points crossed") as caught:
        SCHEMES[PAM_STEEP_SCHEME].prepare(config, build_catalog(config.N, config.beta), config.t0)
    assert [os.path.basename(w.filename) for w in caught] == ["pam_steep.py"]
    assert "N=256, d=2, beta=2.0" in str(caught[0].message)


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
    per_cache = np.bincount([k for caches in placement.holders for k in caches], minlength=steep_config.d)
    assert per_cache.size == steep_config.d and per_cache.max() <= int(steep_config.M)
    for n, caches in enumerate(placement.holders):
        assert len(set(caches)) == len(caches) == placement.copies[n]


def _holders(cache_ids, cache_starts):
    """Each file's caches, as a tuple, from deal_round_robin's flat arrays."""
    return tuple(tuple(caches.tolist()) for caches in np.split(cache_ids, cache_starts[1:]))


@pytest.mark.parametrize("shape, M", [("steep.json", 4.0), ("steep.json", 16.0), ("steep.json", 3.7),
                                      ("steep.json", 0.3), ("steep.json", 0.0), ("steep-mlp", 4.0),
                                      ("K1024-beta1.5", 2.7)])
def test_greedy_fill_equals_the_loop(steep_config, shape, M):
    config = dataclasses.replace({
        "steep.json": steep_config,
        "steep-mlp": make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        "K1024-beta1.5": make_config(K=1024, d=32, N=1024, M=16.0, rho=0.5, beta=1.5),
    }[shape], M=M)
    instance = build_knapsack(config, build_catalog(config.N, config.beta))
    order = np.argsort(-(instance.values / instance.weights), kind="stable")
    filled = np.cumsum(instance.weights[order])
    # the capacity itself, then capacities at, just below and just above
    # cumulative weights, and past the total
    capacities = [instance.capacity, 0.0, float(filled[0]), float(filled[3]),
                  np.nextafter(float(filled[3]), 0.0), float(filled[3]) + 0.25, float(filled[-1]),
                  float(filled[-1]) + 7.5]
    for capacity in capacities:
        at = dataclasses.replace(instance, capacity=capacity)
        placement = solve_fractional_knapsack(at)
        want = loop_knapsack_fill(at)
        assert placement.x.tobytes() == want.tobytes(), capacity
        assert np.array_equal(placement.copies, np.where(want == 1.0, instance.weights, 0))
    fractional = solve_fractional_knapsack(instance).x
    assert ((fractional > 0) & (fractional < 1)).sum() <= 1


def test_holders_list_each_files_caches(steep_instance):
    placement = solve_fractional_knapsack(steep_instance)
    assert len(placement.holders) == len(placement.copies)
    assert placement.holders == _holders(*deal_round_robin(placement.copies, steep_instance.cluster_size))
    assert placement.holders[4] == ()  # file id 4 has no copy


def _manual_placement():
    # file 0 on caches {0, 1}, file 1 on {1}, file 2 on {2}
    x = np.array([1.0, 1.0, 1.0])
    copies = np.array([2, 1, 1])
    return KsPlacement(x=x, copies=copies, holders=((0, 1), (1,), (2,)))


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
    # the matcher draws exactly one uniform per request
    placement = _manual_placement()
    requests = [1, 0, 0]
    rng = stream(42, 0, MATCHING_ROLE)
    outcome = mlp_match(requests, placement, rng)
    replay = stream(42, 0, MATCHING_ROLE)
    want_cache = placement.holders[0][int(replay.random(1)[0] * 2)]
    assert outcome.matched == ((0, want_cache),)
    assert outcome.unmatched_requests == 0


def _placement_of(cache_lists):
    """One cluster's placement: file n on the caches cache_lists[n]."""
    copies = np.array([len(caches) for caches in cache_lists], dtype=np.int64)
    return KsPlacement(
        x=np.zeros(len(cache_lists)),
        copies=copies,
        holders=tuple(tuple(caches) for caches in cache_lists),
    )


def _pick_shares(requests, placement, file, caches, streams=4000):
    """Share of streams in which `file`'s request took each of `caches`."""
    picks = np.zeros(caches, dtype=np.int64)
    for seed in range(streams):
        outcome = mlp_match(requests, placement, stream(seed, 0, MATCHING_ROLE))
        (k,) = [k for n, k in outcome.matched if n == file]
        picks[k] += 1
    return picks / streams


def test_single_request_picks_each_holder_uniformly():
    shares = _pick_shares([1], _placement_of([[0, 1, 2, 3]]), file=0, caches=4)
    se = math.sqrt(0.25 * 0.75 / 4000)
    assert np.all(np.abs(shares - 0.25) <= 5 * se), shares


def test_request_after_a_retired_cache_is_uniform_over_the_rest():
    # file 1 is scanned first and retires cache 2; file 0 then picks among 0, 1, 3
    shares = _pick_shares([1, 1], _placement_of([[0, 1, 2, 3], [2]]), file=0, caches=4)
    se = math.sqrt(1 / 3 * 2 / 3 / 4000)
    assert shares[2] == 0.0
    assert np.all(np.abs(shares[[0, 1, 3]] - 1 / 3) <= 5 * se), shares


def test_extreme_uniforms_pick_the_ends_of_every_list():
    for size in range(1, 65):
        placement = _placement_of([list(range(size))])
        # one cluster, one run of size + 1 requests for file 0: lists of every
        # length size..1, then one unmatched
        run = ([0], [0, size + 1], [0, 1])
        top = np.full(size + 1, np.nextafter(1.0, 0.0))
        matched, unmatched, server = _walk_runs(*run, placement.holders, top)
        assert matched == [(0, k) for k in reversed(range(size))]
        assert (unmatched, server) == (1, [0])
        matched, _, _ = _walk_runs(*run, placement.holders, np.zeros(size + 1))
        assert matched == [(0, k) for k in range(size)]


class _FixedUniforms:
    """A generator stand-in whose one random(n) call returns `u`, as a copy."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _one_trial(cache_lists, counts):
    """(profile, placement) of one trial with counts[n][c] requests for file
    n in cluster c, file n on the caches cache_lists[n]."""
    counts = np.asarray(counts, dtype=np.int64)
    d = 1 + max(k for caches in cache_lists for k in caches)
    config = make_config(K=d * counts.shape[1], d=d, N=counts.shape[0], M=1.0, beta=2.0)
    return profile_from_counts(counts, config), _placement_of(cache_lists)


def _serve_counts(cache_lists, counts, u):
    """(unmatched, rate) of serving _one_trial(cache_lists, counts) on uniforms u."""
    out = serve_one(*_one_trial(cache_lists, counts), _FixedUniforms(u))
    return out.unmatched_requests, out.rate


def test_count_mode_reads_only_uniforms_a_later_run_can_see():
    # cluster 0 scans file 4 (1 request, 1 cache) and file 3 (2 requests, caches
    # 0 and 1), which take every free cache; file 2, which draws between caches
    # 2 and 3; file 1, the last cached run, with one of its 4 caches free for 3
    # requests; and file 0, which has no copy.  Cluster 1 scans file 3, then
    # file 1, which has 3 free caches for 2 requests whatever file 3 takes, so
    # the cluster reads no uniform.  int() raises on a NaN uniform, so only the
    # uniforms a later run can see may be read.
    cache_lists = [[], [0, 1, 2, 3], [2, 3], [0, 1], [4]]
    counts = [[2, 0], [3, 2], [1, 0], [2, 1], [1, 0]]
    poisoned = np.full(12, np.nan)
    poisoned[3] = 0.5
    assert _serve_counts(cache_lists, counts, poisoned) == (4, 2.0)
    walked = walk_pam_steep_serve(*_one_trial(cache_lists, counts), [_FixedUniforms(np.nan_to_num(poisoned))])
    assert (walked.unmatched_requests.tolist(), walked.rates.tolist()) == ([4], [2.0])


def test_count_mode_skips_the_picks_of_the_last_cached_run_behind_uncached_files():
    # one cluster scans file 2 (1 request, caches 0-3), then file 1 (2 requests,
    # caches 0-3), then uncached file 0: file 1 is the last cached run, with 3
    # free caches for 2 requests whatever file 2 takes, so no uniform is read
    cache_lists = [[], [0, 1, 2, 3], [0, 1, 2, 3]]
    assert _serve_counts(cache_lists, [[2], [2], [1]], np.full(5, np.nan)) == (2, 1.0)
    # with file 3 scanned first, the cluster is walked, and only the picks of
    # files 3 and 2 are read
    poisoned = np.array([0.5, 0.5, np.nan, np.nan, np.nan, np.nan])
    assert _serve_counts(cache_lists + [[0, 1, 2, 3]], [[2], [2], [1], [1]], poisoned) == (2, 1.0)


ORACLE_PROFILES = 200  # sampled profiles per configuration


@pytest.mark.parametrize(
    "shape, M", [("steep-mlp", 4.0), ("steep.json", 0.5), ("steep.json", 4.0), ("steep.json", 16.0),
                 ("K1024-beta1.5", 16.0), ("K1024-d1024", 16.0)],
)
def test_serve_equals_parent_run_matcher(steep_config, shape, M):
    config = dataclasses.replace({
        "steep-mlp": make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        "steep.json": steep_config,
        "K1024-beta1.5": make_config(K=1024, d=32, N=1024, M=16.0, rho=0.5, beta=1.5),
        "K1024-d1024": make_config(K=1024, d=1024, N=1024, M=16.0, rho=0.5, beta=1.5),
    }[shape], M=M)
    placement = solve_fractional_knapsack(build_knapsack(config, build_catalog(config.N, config.beta)))
    unmatched = short = 0
    profiles, rows = [], []
    for trial in range(ORACLE_PROFILES):
        profile = sample_profile(config, seed=16, trial=trial)
        profiles.append(profile)
        rng = stream(16, trial, MATCHING_ROLE)
        served = serve_one(profile, placement, rng)
        oracle_rng = stream(16, trial, MATCHING_ROLE)
        want = parent_pam_steep_serve(profile, placement, oracle_rng)
        matched = profile.total_users - served.unmatched_requests
        assert (served.rate, matched, served.unmatched_requests) == want
        assert served.rate == float(want[0])
        assert generator_state(rng) == generator_state(oracle_rng)
        rows.append((served.unmatched_requests, served.rate))
        unmatched += served.unmatched_requests > 0
        short += served.rate < served.unmatched_requests
    assert unmatched > 0 and short > 0  # files sent by the server, some for several requests
    block = pam_steep_serve(join_profiles(profiles), placement,
                            [stream(16, trial, MATCHING_ROLE) for trial in range(ORACLE_PROFILES)])
    assert list(zip(block.unmatched_requests.tolist(), block.rates.tolist())) == rows


@pytest.mark.parametrize("M", [4.0, 16.0])
def test_serve_on_lazily_reseated_generators_equals_independent_streams(steep_config, M):
    # the trial loop hands serve one generator, reseated as serve takes the
    # next trial's; serve must finish each trial's draws before taking it
    config = dataclasses.replace(steep_config, M=M)
    placement = solve_fractional_knapsack(build_knapsack(config, build_catalog(config.N, config.beta)))
    trials = range(5, 45)
    block = sample_profile(config, 9, trial=trials.start, stop=trials.stop)
    assert block.trials == len(trials)
    taken = []

    def reseated():
        for t in trials:
            taken.append(t)
            yield traffic.reseat(9, t, MATCHING_ROLE)

    lazy = pam_steep_serve(block, placement, reseated())
    want = pam_steep_serve(block, placement, [stream(9, t, MATCHING_ROLE) for t in trials])
    assert taken == list(trials)
    assert np.array_equal(lazy.unmatched_requests, want.unmatched_requests)
    assert np.array_equal(lazy.rates, want.rates)
    assert want.unmatched_requests.sum() > 0 and len(set(want.rates.tolist())) > 1
    rows = montecarlo.SCHEMES[PAM_STEEP_SCHEME].trials(block, placement, 9, trials)
    assert np.array_equal(rows[:, 0], want.rates) and np.array_equal(rows[:, 2], want.unmatched_requests)


@pytest.mark.parametrize("shape, M", [("steep-mlp", 4.0), ("steep.json", 4.0), ("steep.json", 16.0)])
def test_cluster_matchings_equal_mlp_match_cluster_by_cluster(steep_config, shape, M):
    # the walk verification's mlp-structural checks: runs found once per
    # block, pairs kept, one generator per trial, as independent streams or
    # as the one generator reseated for each trial that verification passes
    config = dataclasses.replace({
        "steep-mlp": make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        "steep.json": steep_config,
    }[shape], M=M)
    placement = solve_fractional_knapsack(build_knapsack(config, build_catalog(config.N, config.beta)))
    trials = range(3, 11)
    profiles = [sample_profile(config, 21, t) for t in trials]
    rngs = [stream(21, t, MATCHING_ROLE) for t in trials]
    walked = list(cluster_matchings(join_profiles(profiles), placement, rngs))
    reseated = list(cluster_matchings(join_profiles(profiles), placement,
                                      (traffic.reseat(21, t, MATCHING_ROLE) for t in trials)))
    expected = []
    for profile, t, rng in zip(profiles, trials, rngs):
        oracle_rng = stream(21, t, MATCHING_ROLE)
        expected += [mlp_match(column, placement, oracle_rng) for column in profile.counts.T]
        assert generator_state(rng) == generator_state(oracle_rng)
    assert walked == expected
    assert reseated == expected
    assert sum(len(o.matched) for o in walked) > 0 and sum(o.unmatched_requests for o in walked) > 0


class _CallRecorder:
    """Passes every method call through to a generator, recording its name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return record


def test_serve_draws_once_per_trial(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    matched = 0
    for trial in range(25):
        profile = sample_profile(steep_config, seed=12, trial=trial)
        recorder = _CallRecorder(stream(12, trial, MATCHING_ROLE))
        outcome = serve_one(profile, placement, recorder)
        assert recorder.calls == ["random"]
        assert outcome == serve_one(profile, placement, stream(12, trial, MATCHING_ROLE))
        matched += profile.total_users - outcome.unmatched_requests
    assert matched >= 100  # many matched requests, one draw call each trial


def _random_block(gen, d, clusters, trials, rate):
    """(placement, block, counts of each trial): a random placement of d * clusters
    to d * clusters + 11 files, and `trials` trials of Poisson(rate) counts
    per (file, cluster), some clusters emptied or left with one file, built
    by profile_from_counts and joined."""
    config = make_config(K=d * clusters, d=d, N=d * clusters + int(gen.integers(0, 12)), M=1.0, beta=2.0)
    placement = _random_placement(gen, config.N, d)
    counts = [gen.poisson(rate, size=(config.N, clusters)) for _ in range(trials)]
    for trial_counts in counts:
        if gen.random() < 0.3:
            trial_counts[:, gen.integers(clusters)] = 0
        if gen.random() < 0.3:  # one cluster asks for one file only
            column = trial_counts[:, gen.integers(clusters)]
            column[:] = 0
            column[gen.integers(config.N)] = 1 + gen.poisson(2.0)
    block = join_profiles([profile_from_counts(c, config) for c in counts])
    return placement, block, counts


def _serve_classes(placement, counts):
    """The run classes of pam_steep_serve that the trials' clusters reach."""
    seen = set()
    for trial_counts in counts:
        walked_trial = False
        for column in trial_counts.T:
            requested = np.flatnonzero(column)
            cached = [n for n in requested if placement.copies[n]]
            uncached = len(cached) < requested.size
            if not requested.size:
                seen.add("empty_cluster")
            if len(cached) == 1 and column[cached[0]] > placement.copies[cached[0]]:
                seen.add("lone_final_short")
            tight = False
            if len(cached) == 2:
                final, picking = cached
                took = min(column[picking], placement.copies[picking])
                tight = placement.copies[final] - took < column[final]
                seen.add("tight_final" if tight else "final_with_slack")
            if len(cached) >= 3:
                seen.add("two_picking_runs")
            walked = tight or len(cached) >= 3
            walked_trial |= walked
            if walked and uncached:
                seen.add("uncached_in_walked_cluster")
        if not walked_trial:
            seen.add("trial_not_walked")
    return seen


SERVE_CLASSES = {"empty_cluster", "lone_final_short", "final_with_slack", "tight_final",
                 "two_picking_runs", "uncached_in_walked_cluster", "trial_not_walked"}


def _assert_serve_equals_the_walk(placement, block, seed):
    trials = range(block.trials)
    rngs = [stream(seed, t, MATCHING_ROLE) for t in trials]
    served = pam_steep_serve(block, placement, rngs)
    walk_rngs = [stream(seed, t, MATCHING_ROLE) for t in trials]
    walked = walk_pam_steep_serve(block, placement, walk_rngs)
    assert served.unmatched_requests.dtype == np.int64 and served.rates.dtype == np.float64
    assert served.unmatched_requests.tobytes() == walked.unmatched_requests.tobytes()
    assert served.rates.tobytes() == walked.rates.tobytes()
    assert [generator_state(r) for r in rngs] == [generator_state(r) for r in walk_rngs]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(2, 8),
    clusters=st.integers(1, 5),
    trials=st.integers(1, 6),
    rate=st.sampled_from([0.05, 0.3, 1.5, 4.0]),
)
def test_serve_equals_the_walk_on_random_blocks(seed, d, clusters, trials, rate):
    # counts and generator states of the settle-then-walk serve equal the
    # walk of every pick in every cluster
    placement, block, _ = _random_block(np.random.default_rng(seed), d, clusters, trials, rate)
    _assert_serve_equals_the_walk(placement, block, seed)


def test_serve_cases_reach_every_run_class():
    gen = np.random.default_rng(2026)
    seen = Counter()  # cases, of 150, that reach each class
    for seed in range(150):
        d, clusters, trials = int(gen.integers(2, 9)), int(gen.integers(1, 6)), int(gen.integers(1, 7))
        rate = float(gen.choice([0.05, 0.3, 1.5, 4.0]))
        placement, block, counts = _random_block(gen, d, clusters, trials, rate)
        _assert_serve_equals_the_walk(placement, block, seed)
        seen.update(_serve_classes(placement, counts))
    assert set(seen) == SERVE_CLASSES and min(seen.values()) >= 10, seen


def test_mlp_empty_requests():
    outcome = mlp_match([0, 0, 0], _manual_placement(), stream(0, 0, MATCHING_ROLE))
    assert outcome.matched == ()
    assert outcome.unmatched_requests == 0
    assert outcome.server_files == ()


def test_envelope_frozen(steep_config):
    # E[uncached] is pinned by test_verification's steep-envelope detail
    assert steep_order_value(steep_config) == pytest.approx(4.0, rel=1e-13)


def test_envelope_order_value_branches():
    # d*M <= 1 falls back to the memory-free exponent K^(1/beta)
    tiny = steep_order_value(make_config(K=16, d=4, N=16, M=0.25, beta=2.0))
    assert tiny == pytest.approx(4.0, rel=1e-13)
    heavy = steep_order_value(make_config(K=16, d=4, N=16, M=64.0, beta=2.0))
    assert heavy == pytest.approx(16 / 256.0, rel=1e-13)


def test_scheme_analytic_builds_no_placement(monkeypatch):
    configs = [
        load_config("configs/steep.json"),
        make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
        make_config(K=16, d=4, N=16, M=0.25, beta=2.0),
        make_config(K=16, d=4, N=16, M=64.0, beta=2.0),
    ]
    expected = [steep_order_value(config) for config in configs]

    def refuse(*args):
        raise AssertionError("placement built")

    # the scheme table looks both up in montecarlo, so building even the
    # knapsack instance fails
    monkeypatch.setattr(montecarlo, "build_knapsack", refuse)
    monkeypatch.setattr(montecarlo, "solve_fractional_knapsack", refuse)
    for config, want in zip(configs, expected):
        got = SCHEMES[PAM_STEEP_SCHEME].analytic(config, config.t0)
        assert got.hex() == want.hex()


def test_envelope_rejects_shallow(base_config):
    with pytest.raises(DomainError):
        steep_order_value(base_config)


def test_serve_hand_example():
    config = make_config(K=3, d=3, N=3, M=1.0, beta=2.0)
    counts = np.array([2, 1, 1], dtype=np.int64).reshape(-1, 1)
    profile = profile_from_counts(counts, config)
    outcome = serve_one(profile, _manual_placement(), stream(0, 0, MATCHING_ROLE))
    assert profile.total_users - outcome.unmatched_requests == 3
    assert outcome.unmatched_requests == 1
    assert outcome.rate == 1.0


def test_serve_request_accounting(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    for trial in range(25):
        profile = sample_profile(steep_config, seed=31, trial=trial)
        outcome = serve_one(profile, placement, stream(31, trial, MATCHING_ROLE))
        assert 0 <= outcome.unmatched_requests <= profile.total_users
        assert outcome.rate <= outcome.unmatched_requests


def test_serve_equals_mlp_over_dense_columns(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    for trial in range(10):
        profile = sample_profile(steep_config, seed=8, trial=trial)
        rng = stream(8, trial, MATCHING_ROLE)
        outcomes = [mlp_match(column, placement, rng) for column in profile.counts.T]
        served = serve_one(profile, placement, stream(8, trial, MATCHING_ROLE))
        assert profile.total_users - served.unmatched_requests == sum(len(o.matched) for o in outcomes)
        assert served.unmatched_requests == sum(o.unmatched_requests for o in outcomes)
        assert served.rate == len({n for o in outcomes for n in o.server_files})


def test_serve_is_reproducible(steep_config):
    catalog = build_catalog(steep_config.N, steep_config.beta)
    placement = solve_fractional_knapsack(build_knapsack(steep_config, catalog))
    profile = sample_profile(steep_config, seed=5, trial=0)
    first = serve_one(profile, placement, stream(5, 0, MATCHING_ROLE))
    second = serve_one(profile, placement, stream(5, 0, MATCHING_ROLE))
    assert first == second


def _reference_dense_mlp(requests, placement, rng):
    """Dense most-popular-last matching, written independently of the run
    matcher: scan every file index from the last down, re-filter the free
    caches before each request, and give each request its own uniform, all
    drawn up front in scan order; an unmatched request's uniform goes unused.
    Returns (matched requests, unmatched requests, files sent by the server,
    events): events names what happened to the requested cached files, the
    last of which in scan order is the smallest such index: "short_last_run"
    when that file has fewer free caches than requests, "took_every_free_cache"
    when an earlier one asks for at least as many caches as it finds free."""
    free = {k for caches in placement.holders for k in caches}
    matched, unmatched, server, events = 0, 0, set(), set()
    uniforms = iter(rng.random(int(sum(requests))))
    last = min((n for n in range(len(requests)) if requests[n] and placement.copies[n]), default=None)
    for n in range(len(requests) - 1, -1, -1):
        holders = placement.holders[n]
        free_now = sum(k in free for k in holders)
        if n == last and free_now < requests[n]:
            events.add("short_last_run")
        if requests[n] and n != last and 0 < free_now <= requests[n]:
            events.add("took_every_free_cache")
        for _ in range(int(requests[n])):
            u = next(uniforms)
            cand = [k for k in holders if k in free]
            if not cand:
                unmatched += 1
                server.add(n)
                continue
            free.discard(cand[int(u * len(cand))])
            matched += 1
    return matched, unmatched, server, events


def _random_placement(gen, n_files, d):
    """Each file on 0, 1, a few or all d caches of the cluster."""
    copies = np.minimum(gen.choice([0, 1, 2, 3, d], size=n_files, p=[0.3, 0.3, 0.15, 0.1, 0.15]), d)
    sets = [np.sort(gen.choice(d, size=c, replace=False)) for c in copies]
    return KsPlacement(
        x=np.zeros(n_files),
        copies=copies.astype(np.int64),
        holders=tuple(tuple(caches.tolist()) for caches in sets),
    )


def test_serve_replays_dense_matching_draw_for_draw(monkeypatch):
    def refuse(profile):
        raise AssertionError("dense counts built")

    monkeypatch.setattr(RequestProfile, "counts", property(refuse))
    gen = np.random.default_rng(2017)
    seen = dict(empty_cluster=0, uncached_request=0, one_copy_request=0, crowded_file=0,
                short_last_run=0, took_every_free_cache=0)
    for i in range(240):
        d = int(gen.integers(2, 9))
        clusters = int(gen.integers(1, 6))
        config = make_config(K=d * clusters, d=d, N=d * clusters + int(gen.integers(0, 12)),
                             M=1.0, beta=2.0)
        placement = _random_placement(gen, config.N, d)
        counts = gen.poisson(gen.choice([0.05, 0.3, 1.5]), size=(config.N, clusters))
        if gen.random() < 0.4:
            counts[:, gen.integers(clusters)] = 0
        profile = profile_from_counts(counts, config)

        rng = stream(i, 3, MATCHING_ROLE)
        served = serve_one(profile, placement, rng)

        oracle_rng = stream(i, 3, MATCHING_ROLE)
        matched, unmatched, server, events = 0, 0, set(), set()
        for column in counts.T:
            m, u, files, happened = _reference_dense_mlp(column, placement, oracle_rng)
            matched, unmatched, server = matched + m, unmatched + u, server | files
            events |= happened
        assert (served.rate, profile.total_users - served.unmatched_requests, served.unmatched_requests) == (
            len(server), matched, unmatched)
        assert served.rate == float(len(server))
        assert generator_state(rng) == generator_state(oracle_rng)

        # the dense adapter replays the same draws, cluster by cluster
        adapter_rng = stream(i, 3, MATCHING_ROLE)
        outcomes = [mlp_match(column, placement, adapter_rng) for column in counts.T]
        assert sum(len(o.matched) for o in outcomes) == matched
        assert sum(o.unmatched_requests for o in outcomes) == unmatched
        assert {n for o in outcomes for n in o.server_files} == server
        assert generator_state(adapter_rng) == generator_state(oracle_rng)

        requested = counts.sum(axis=1)
        seen["empty_cluster"] += bool((counts.sum(axis=0) == 0).any())
        seen["uncached_request"] += bool(((requested > 0) & (placement.copies == 0)).any())
        seen["one_copy_request"] += bool(((requested > 0) & (placement.copies == 1)).any())
        crowded = (counts > placement.copies[:, None]) & (placement.copies[:, None] > 0)
        seen["crowded_file"] += bool(crowded.any())
        for event in events:
            seen[event] += 1
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
    x, copies, cache_ids, cache_starts = _sorted_greedy(instance)
    for a, b in zip((placement.x, placement.copies), (x, copies)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert placement.holders == _holders(cache_ids, cache_starts)


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
