"""Scoring trials a block at a time.

Every scheme scores a block of consecutive trials in one call.  The rows of
trials [a, b) must be byte-identical whether they are scored as one block,
as blocks of one, or in any other split, whatever caps run_trials blocks
them by, and equal to each trial accounted alone as the per-trial code did
(oracles.oracle_row).  The cases reach the branches of every kernel:
clusters over their cap and empty ones, an hcm color without caches, a steep
coded pool smaller than the catalog and an empty one, and pam-shallow trials
with and without evictions.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachematch import montecarlo, traffic
from cachematch.config import load_config
from cachematch.montecarlo import SCHEMES, ExperimentSpec, run_trials
from cachematch.pcd import coded_pool_size
from cachematch.popularity import build_catalog
from cachematch.traffic import distinct_counts, group_counts, sample_profile

from conftest import make_config
from oracles import join_profiles, oracle_row

CASES = {
    # rho * d = 1.8 against d = 4: crowded clusters and empty ones
    "pcd-crowded": ("pcd", make_config(K=40, d=4, N=12, M=2.0, rho=0.45)),
    "pcd-steep-pool": ("pcd", make_config(K=16, d=4, N=64, M=1.0, rho=0.45, beta=2.0)),  # pool 4 < N
    "pcd-steep-no-pool": ("pcd", make_config(K=16, d=4, N=64, M=0.5, rho=0.45, beta=2.0)),  # pool 0
    # four colors at t = 0.5, caps replaced below so that they bind, one of them 0
    "hcm-colors": ("hcm", make_config(K=3000, d=1000, N=60, M=2.0, rho=0.25)),
    "pam-shallow-evicting": ("pam-shallow", make_config(K=40, d=4, N=12, M=6.0, rho=0.15, beta=0.5)),
    "pam-steep": ("pam-steep", load_config("configs/steep.json")),
}
HCM_CAPS = np.array([2, 0, 3, 1])
HCM_SLACK = 0.5


def _prepared(case):
    """(scheme, config, state, a build_color_plan that gives the state's plan)."""
    name, config = CASES[case]
    if name == "hcm":
        plan = SCHEMES[name].prepare(config, build_catalog(config.N, config.beta), HCM_SLACK)
        assert plan.chi == HCM_CAPS.size
        plan = dataclasses.replace(plan, caches_per_color=HCM_CAPS)
        return name, config, plan, lambda config, catalog, t: plan
    state = SCHEMES[name].prepare(config, build_catalog(config.N, config.beta), config.t0)
    return name, config, state, montecarlo.build_color_plan


def _split_rows(name, config, state, seed, trials, bounds):
    """Rows of `trials` scored as the blocks trials[bounds[i]:bounds[i + 1]]."""
    profiles = [sample_profile(config, seed, t) for t in trials]
    parts = [SCHEMES[name].trials(join_profiles(profiles[a:b]), config, state, seed, trials[a:b])
             for a, b in zip(bounds, bounds[1:])]
    return np.concatenate(parts)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 40),
    count=st.integers(1, 24),
    cuts=st.lists(st.integers(1, 23), max_size=6),
    block_requests=st.sampled_from([1, 9, 60, 1 << 13]),
    block_caches=st.sampled_from([0, 100, 1 << 17]),
)
@example(case="hcm-colors", seed=1, start=0, count=24, cuts=[3, 4, 17], block_requests=60,
         block_caches=1 << 17)
@example(case="pam-shallow-evicting", seed=1, start=5, count=24, cuts=[1, 2], block_requests=9,
         block_caches=100)
def test_rows_do_not_depend_on_the_blocking(case, seed, start, count, cuts, block_requests, block_caches):
    name, config, state, plan_builder = _prepared(case)
    trials = range(start, start + count)
    whole = _split_rows(name, config, state, seed, trials, [0, count])
    assert whole.shape == (count, 3) and whole.dtype == np.float64
    ones = _split_rows(name, config, state, seed, trials, list(range(count + 1)))
    bounds = sorted({0, count, *(c for c in cuts if c < count)})
    split = _split_rows(name, config, state, seed, trials, bounds)
    oracle = np.array([oracle_row(name, sample_profile(config, seed, t), config, state, seed, t)
                       for t in trials])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "BLOCK_REQUESTS", block_requests)
        patch.setattr(montecarlo, "BLOCK_CACHES", block_caches)
        patch.setattr(montecarlo, "build_color_plan", plan_builder)
        spec = ExperimentSpec(config=config, scheme=name, trials=start + count, seed=seed, t_param=HCM_SLACK)
        looped = run_trials(spec, start, count)
    for rows in (ones, split, oracle, looped):
        assert rows.tobytes() == whole.tobytes()


def test_cases_reach_every_branch():
    seed, trials = 1, range(40)
    for case in CASES:
        name, config, state, _ = _prepared(case)
        profiles = [sample_profile(config, seed, t) for t in trials]
        rows = _split_rows(name, config, state, seed, trials, [0, len(trials)])
        oracle = [oracle_row(name, p, config, state, seed, t) for p, t in zip(profiles, trials)]
        assert rows.tolist() == [list(row) for row in oracle], case
        sizes = np.concatenate([p.cluster_totals() for p in profiles])
        if case == "pcd-crowded":
            assert (sizes > config.d).any() and (sizes == 0).any()
        if case == "pcd-steep-pool":
            pool = coded_pool_size(config)
            assert 0 < pool < config.N
            assert any((p.files >= pool).any() for p in profiles)
        if case == "pcd-steep-no-pool":
            assert coded_pool_size(config) == 0 and rows[:, 0].sum() > 0
        if case == "hcm-colors":
            color = np.concatenate([state.file_color[p.files] for p in profiles])
            assert (color == 1).any()  # requests for the color without caches
            assert rows[:, 2].min() > 0 and rows[:, 1].max() > 0
        if case == "pam-shallow-evicting":
            assert (rows[:, 0] > 0).any() and (rows[:, 0] == 0).any()
        if case == "pam-steep":
            assert (rows[:, 2] > 0).any()


def test_a_block_keeps_within_its_caps(monkeypatch, cold_memo):
    # a scored block is one draw: it ends where its next trial would pass
    # BLOCK_REQUESTS requests, unless it holds one trial, or at BLOCK_CACHES caches
    config = load_config("configs/default.json")
    totals = [int(traffic.draw_profiles(config, 2, t, t + 1)[0][-1]) for t in range(300)]
    blocks = []
    original = montecarlo.pcd_simulate

    def recording(block, config):
        blocks.append((block.trials, block.total_users))
        return original(block, config)

    monkeypatch.setattr(montecarlo, "pcd_simulate", recording)
    spec = ExperimentSpec(config=config, scheme="pcd", trials=300, seed=2)
    cap = traffic.BLOCK_REQUESTS
    monkeypatch.setattr(traffic, "BLOCK_REQUESTS", 500)
    run_trials(spec, 0, 300)
    first = 0
    for trials, requests in blocks:
        assert requests == sum(totals[first:first + trials])
        assert requests <= 500 or trials == 1
        first += trials
        assert first == 300 or requests + totals[first] > 500
    assert first == 300 and len(blocks) > 1
    blocks.clear()
    monkeypatch.setattr(traffic, "_memo", traffic._ProfileMemo())
    monkeypatch.setattr(traffic, "BLOCK_REQUESTS", cap)
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", 5 * config.K)
    run_trials(spec, 0, 300)
    assert [t for t, _ in blocks] == [5] * 60


def test_pam_shallow_memory_stays_with_the_requests(cold_memo):
    # rho * K = 82 requests a trial: a block of BLOCK_REQUESTS requests would
    # span about 100 trials, whose load array of one float per (trial,
    # cluster, cache) slot would take about 52 MB
    config = make_config(K=1 << 16, d=256, N=1 << 16, M=256.0, rho=0.00125)
    spec = ExperimentSpec(config=config, scheme="pam-shallow", trials=300, seed=7)
    build_catalog(config.N, config.beta)  # the catalog is cached across runs; count it out
    tracemalloc.start()
    try:
        rows = run_trials(spec, 0, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (300, 3)
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MB"


def test_join_profiles_lays_trials_end_to_end():
    config = make_config(K=40, d=4, N=12, M=2.0, rho=0.45)
    profiles = [sample_profile(config, 3, t) for t in range(5)]
    block = join_profiles(profiles)
    assert block.config is config
    assert block.trial_totals().tolist() == [p.total_users for p in profiles]
    assert np.array_equal(block.cluster_totals(), np.concatenate([p.cluster_totals() for p in profiles]))
    assert np.array_equal(block.files, np.concatenate([p.files for p in profiles]))
    assert block.offsets[0] == 0 and block.offsets.dtype == np.int64
    assert join_profiles(profiles[:1]) is profiles[0]


def test_group_counts_and_distinct_counts_handle_empty_groups():
    sizes = np.array([0, 3, 0, 2, 0])
    flags = np.array([True, False, True, True, True])
    assert group_counts(flags, sizes).tolist() == [0, 2, 0, 2, 0]
    keys = np.array([1 * 10 + 4, 1 * 10 + 4, 1 * 10 + 2, 3 * 10 + 0, 3 * 10 + 9])
    assert distinct_counts(keys, sizes).tolist() == [0, 2, 0, 2, 0]
    assert distinct_counts(keys + (1 << 40), sizes).tolist() == [0, 2, 0, 2, 0]  # int64 keys
    assert distinct_counts(np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]
