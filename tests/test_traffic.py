import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachematch import montecarlo, traffic
from cachematch.errors import DomainError
from cachematch.popularity import build_catalog
from cachematch.traffic import (
    MATCHING_ROLE,
    PROFILE_ROLE,
    SAMPLER_VERSION,
    RequestProfile,
    draw_profiles,
    sample_profile,
    stream,
)

from conftest import generator_state, make_config
from oracles import distinct_files, join_profiles, loop_draw_profiles, profile_from_counts


def test_stream_deterministic():
    a = stream(7, 3).integers(0, 1 << 30, 16)
    b = stream(7, 3).integers(0, 1 << 30, 16)
    assert np.array_equal(a, b)


def test_stream_separates_keys_and_roles():
    base = stream(7, 3).integers(0, 1 << 30, 16)
    assert not np.array_equal(base, stream(8, 3).integers(0, 1 << 30, 16))
    assert not np.array_equal(base, stream(7, 4).integers(0, 1 << 30, 16))
    assert not np.array_equal(
        base, stream(7, 3, MATCHING_ROLE).integers(0, 1 << 30, 16)
    )
    assert MATCHING_ROLE != PROFILE_ROLE


def test_stream_role_equals_jumped_philox():
    # a role's stream is built at its counter, not by jumping; same state, same draws
    top = (1 << 64) - 1
    for seed in (0, 1, 7, 1 << 63, top):
        for trial in (0, 3, top):
            key = np.array([seed, trial], dtype=np.uint64)
            plain = np.random.Generator(np.random.Philox(key=key))
            assert generator_state(stream(seed, trial)) == generator_state(plain)
            for role in (1, 2, 3):
                want = np.random.Generator(np.random.Philox(key=key).jumped(role))
                got = stream(seed, trial, role)
                assert generator_state(got) == generator_state(want)
                assert np.array_equal(got.random(5), want.random(5))


def test_stream_is_built_from_a_fixed_seed():
    # a seed sequence built from OS entropy would cost a read per stream and
    # leave seed_seq differing from run to run
    for role in (PROFILE_ROLE, MATCHING_ROLE):
        assert stream(5, 9, role).bit_generator.seed_seq.entropy == 0


def test_importing_the_program_leaves_numpy_random_unloaded():
    # generators are made on first use, so the import does not pay for numpy.random
    src = pathlib.Path(traffic.__file__).resolve().parents[1]
    code = "import sys, cachematch.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_stream_rejects_negative_trial():
    with pytest.raises(DomainError):
        stream(0, -1)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (1 << 64, 0), (0, 1 << 64)])
def test_stream_rejects_keys_outside_64_bits(seed, trial):
    # masking would alias seed -1 with seed 2**64 - 1
    with pytest.raises(DomainError):
        stream(seed, trial)


def test_stream_rejects_fractional_keys():
    with pytest.raises(TypeError):
        stream(1.5, 0)


def test_stream_accepts_both_ends_of_the_key_range():
    top = (1 << 64) - 1
    high = stream(top, top).integers(0, 1 << 30, 16)
    assert not np.array_equal(high, stream(0, 0).integers(0, 1 << 30, 16))


KEYS = st.integers(0, (1 << 64) - 1)


@given(seed=KEYS, trial=KEYS, role=st.sampled_from([PROFILE_ROLE, MATCHING_ROLE]),
       before=st.none() | st.tuples(KEYS, KEYS, st.integers(0, 7), st.integers(0, 9)))
@example(seed=0, trial=0, role=PROFILE_ROLE, before=None)
@example(seed=(1 << 64) - 1, trial=(1 << 64) - 1, role=MATCHING_ROLE, before=None)
@example(seed=0, trial=(1 << 64) - 1, role=PROFILE_ROLE, before=((1 << 64) - 1, 0, 3, 1))
@example(seed=5, trial=9, role=MATCHING_ROLE, before=(5, 9, 1, 2))
@settings(max_examples=120, deadline=None)
def test_reseat_equals_a_fresh_stream(seed, trial, role, before):
    # `before` uses the generator first: an odd count of uint32 draws leaves
    # one held, and uniforms read part of Philox's four-word buffer
    if before is not None:
        used = traffic.reseat(before[0], before[1], PROFILE_ROLE)
        used.integers(0, 1 << 31, size=before[2], dtype=np.uint32)
        used.random(before[3])
    rng = traffic.reseat(seed, trial, role)
    fresh = stream(seed, trial, role)
    assert generator_state(rng) == generator_state(fresh)
    assert np.array_equal(rng.poisson(2.5, size=13), fresh.poisson(2.5, size=13))
    assert np.array_equal(rng.random(11), fresh.random(11))
    assert np.array_equal(rng.integers(0, 1 << 31, size=3, dtype=np.uint32),
                          fresh.integers(0, 1 << 31, size=3, dtype=np.uint32))
    assert generator_state(rng) == generator_state(fresh)


def test_matching_streams_give_each_trials_matching_stream_in_order():
    # each generator is drawn from before the next is taken, as serve does
    draws = [rng.random(5).tolist() for rng in traffic.matching_streams(7, range(3, 9))]
    assert draws == [stream(7, t, MATCHING_ROLE).random(5).tolist() for t in range(3, 9)]


@pytest.mark.parametrize("seed, trial", [(-1, 0), (1 << 64, 0), (0, 1 << 64), (0, -1)])
def test_reseat_rejects_keys_outside_64_bits(seed, trial):
    with pytest.raises(DomainError):
        traffic.reseat(seed, trial)


def test_sample_profile_shape_and_determinism(base_config):
    profile = sample_profile(base_config, seed=5, trial=2)
    assert profile.counts.shape == (base_config.N, base_config.num_clusters)
    assert profile.counts.dtype == np.int64
    again = sample_profile(base_config, seed=5, trial=2)
    assert np.array_equal(profile.counts, again.counts)
    other = sample_profile(base_config, seed=5, trial=3)
    assert not np.array_equal(profile.counts, other.counts)


def test_sample_profile_is_read_only(base_config):
    profile = sample_profile(base_config, seed=0)
    with pytest.raises(ValueError):
        profile.counts[0, 0] = 3


def test_sample_profile_mean_matches_intensity(base_config):
    # mean of total_users over trials should sit near rho*K = 25
    totals = [
        sample_profile(base_config, seed=11, trial=t).total_users
        for t in range(80)
    ]
    mean = float(np.mean(totals))
    sigma = float(np.std(totals, ddof=1)) / np.sqrt(len(totals))
    assert abs(mean - base_config.rho * base_config.K) <= 5 * sigma


def test_sampler_version_is_exported():
    import cachematch

    assert cachematch.SAMPLER_VERSION == SAMPLER_VERSION == 3


def test_from_counts_round_trips_sampled_profile(base_config):
    for trial in range(5):
        profile = sample_profile(base_config, seed=9, trial=trial)
        again = profile_from_counts(profile.counts, base_config)
        assert np.array_equal(again.offsets, profile.offsets)
        assert np.array_equal(again.files, profile.files)
        assert again.files.dtype == profile.files.dtype == np.int64


def test_files_sorted_within_each_cluster(base_config):
    profile = sample_profile(dataclasses.replace(base_config, beta=0.6), seed=4, trial=1)
    offsets = profile.offsets
    assert offsets[0] == 0 and offsets.size == base_config.num_clusters + 1
    for c in range(base_config.num_clusters):
        block = profile.files[offsets[c] : offsets[c + 1]]
        assert np.all(np.diff(block) >= 0)
        assert block.size == 0 or 0 <= block[0] <= block[-1] < base_config.N


def test_counts_view_is_dense_read_only_int64(base_config):
    profile = sample_profile(base_config, seed=2, trial=0)
    counts = profile.counts
    assert counts.shape == (base_config.N, base_config.num_clusters)
    assert counts.dtype == np.int64
    assert not counts.flags.writeable
    assert counts is profile.counts  # built once
    assert np.array_equal(counts.sum(axis=0), profile.cluster_totals())


def test_from_counts_rejects_bad_counts(base_config):
    with pytest.raises(DomainError):
        profile_from_counts(np.zeros((3, 2), dtype=np.int64), base_config)
    bad = np.zeros((base_config.N, base_config.num_clusters), dtype=np.int64)
    bad[0, 0] = -1
    with pytest.raises(ValueError):
        profile_from_counts(bad, base_config)


def test_sampler_matches_poisson_splitting_law():
    # 500 trials x 10 clusters: totals have mean rho*d = 2.5, and each file's
    # pooled count is Poisson with mean trials * K * rho * p_n; every check is
    # held to 5 standard errors at this fixed seed
    config = make_config(beta=0.6)
    cat = build_catalog(config.N, config.beta)
    trials = 500
    totals = []
    pooled = np.zeros(config.N)
    for t in range(trials):
        profile = sample_profile(config, seed=17, trial=t)
        totals.append(profile.cluster_totals())
        pooled += np.bincount(profile.files, minlength=config.N)
    totals = np.concatenate(totals)
    lam = config.rho * config.d
    assert abs(totals.mean() - lam) <= 5 * np.sqrt(lam / totals.size)
    assert abs(totals.var(ddof=1) - lam) <= 5 * np.sqrt((lam + 2 * lam**2) / totals.size)
    expected = trials * config.K * config.rho * cat.p
    assert np.all(np.abs(pooled - expected) <= 5 * np.sqrt(expected))


def _tiny_profile():
    config = make_config(K=20, d=10, N=3)
    counts = np.array([[1, 0], [0, 2], [0, 0]], dtype=np.int64)
    return profile_from_counts(counts, config)


def test_cluster_totals_and_total_users():
    profile = _tiny_profile()
    assert profile.total_users == 3
    assert np.array_equal(profile.cluster_totals(), [1, 2])


def test_distinct_files():
    profile = _tiny_profile()
    assert distinct_files(profile) == 2


# --- block draws ------------------------------------------------------------

def _lone_draw(config, seed, trial):
    """sample_profile's profile of `trial`, drawn alone on an empty memo."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(traffic, "_memo", traffic._ProfileMemo())
        return sample_profile(config, seed, trial)


def _same_draw(a, b):
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.files, b.files)


def _lone_draws(config, seed, trials):
    """The lone draws of `trials`, joined as one block."""
    return join_profiles([_lone_draw(config, seed, t) for t in trials])


@given(
    clusters=st.integers(1, 12),
    d=st.sampled_from([1, 2, 5, 16]),
    extra_files=st.integers(0, 300),
    rho=st.floats(0.001, 0.49),
    beta=st.sampled_from([0.0, 0.5, 0.9, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 41)),
    length=st.integers(1, 40),
)
# beta = 2 at N = 4096: steep tails crowd guide buckets, which are searched
@example(clusters=64, d=64, extra_files=0, rho=0.1, beta=2.0, seed=5, start=3, length=12)
# rho * d = 0.1: empty clusters and trials of no request, from mid-run
@example(clusters=3, d=10, extra_files=0, rho=0.01, beta=0.0, seed=1, start=17, length=30)
# N * clusters * trials = 2^18 * 12 * 800 > 2^31: sort keys too wide for int32
@example(clusters=12, d=1, extra_files=(1 << 18) - 12, rho=0.1, beta=0.0, seed=3, start=0, length=800)
@settings(max_examples=60, deadline=None)
def test_block_draw_equals_lone_draws(clusters, d, extra_files, rho, beta, seed, start, length):
    config = make_config(K=clusters * d, d=d, N=clusters * d + extra_files, rho=rho, beta=beta)
    offsets, files = draw_profiles(config, seed, start, start + length)
    block = RequestProfile(offsets, files, config)
    assert 1 <= block.trials <= length
    if block.trials < length:  # the cap ended it: the next trial would pass it
        assert files.size <= traffic.BLOCK_REQUESTS
        assert files.size + _lone_draw(config, seed, start + block.trials).total_users > traffic.BLOCK_REQUESTS
    for got in (offsets, files):
        assert got.dtype == np.int64 and not got.flags.writeable
    assert _same_draw(block, _lone_draws(config, seed, range(start, start + block.trials)))
    # sorted within each (trial, cluster); a step down only where one starts
    down = np.flatnonzero(np.diff(files) < 0) + 1
    assert np.isin(down, offsets).all()


@given(
    clusters=st.integers(1, 12),
    d=st.integers(1, 40),
    extra_files=st.integers(0, 300),
    rho=st.sampled_from([0.01, 0.1, 0.3, 0.45]),
    beta=st.sampled_from([0.0, 0.8, 2.0]),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 41)),
    length=st.integers(1, 40),
    cap=st.sampled_from([0, 5, 40, 300, None]),
)
# one trial past a small cap: the block buffer grows for it alone
@example(clusters=4, d=40, extra_files=0, rho=0.45, beta=0.0, seed=1, start=0, length=1, cap=5)
@example(clusters=4, d=40, extra_files=0, rho=0.45, beta=0.0, seed=1, start=9, length=6, cap=5)
# trials of no request after one past the cap end the block as any other
@example(clusters=2, d=1, extra_files=0, rho=0.3, beta=0.0, seed=4, start=0, length=30, cap=0)
@settings(max_examples=80, deadline=None)
def test_block_draw_equals_the_loop_oracle(clusters, d, extra_files, rho, beta, seed, start, length, cap):
    config = make_config(K=clusters * d, d=d, N=clusters * d + extra_files, rho=rho, beta=beta)
    with pytest.MonkeyPatch.context() as m:
        if cap is not None:
            m.setattr(traffic, "BLOCK_REQUESTS", cap)
        got = draw_profiles(config, seed, start, start + length)
        want = loop_draw_profiles(config, seed, start, start + length)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64 and g.tobytes() == w.tobytes()


def test_memo_slices_from_mid_block_equal_the_loop_oracle(cold_memo):
    config = make_config(K=60, d=10, N=80, rho=0.3)
    held = sample_profile(config, 8, 0, 40)
    assert held.trials == 40
    for first, stop in ((7, 20), (0, 1), (39, 40), (13, 40)):
        block = sample_profile(config, 8, first, stop)
        want = loop_draw_profiles(config, 8, first, stop)
        assert block.offsets.tobytes() == want[0].tobytes()
        assert block.files.tobytes() == want[1].tobytes()


# --- the per-process block memo ------------------------------------------------

MEMO_KEYS = [
    (make_config(K=60, d=10, N=40, rho=0.3), 5),
    (make_config(K=60, d=10, N=40, rho=0.3, beta=0.6), 5),  # beta alone changes the draw
    (make_config(K=80, d=20, N=50, rho=0.45), 5),
    (make_config(K=60, d=10, N=40, rho=0.3), 6),
]


@given(
    calls=st.lists(
        st.tuples(st.integers(0, len(MEMO_KEYS) - 1), st.integers(0, 30),
                  st.one_of(st.none(), st.integers(0, 45))),
        min_size=1, max_size=24),
    budget=st.sampled_from([0, 2500, 12_000, 4 << 20]),
    cap=st.sampled_from([40, 1 << 13]),
)
# starts inside, before and between held blocks, and past them all
@example(calls=[(0, 5, 8), (0, 2, 10), (0, 6, None), (0, 9, 20), (0, 8, 30), (0, 0, 45)],
         budget=4 << 20, cap=1 << 13)
@example(calls=[(0, 5, 8), (0, 2, 10), (0, 6, None), (0, 9, 20), (0, 8, 30), (0, 0, 45)],
         budget=4 << 20, cap=40)
# a key change, and back to a key whose blocks went
@example(calls=[(0, 0, 10), (1, 3, 10), (0, 4, 6), (3, 4, 6)], budget=12_000, cap=1 << 13)
@settings(max_examples=80, deadline=None)
def test_block_memo_keeps_its_contract(calls, budget, cap):
    draws = []
    draw = traffic.draw_profiles

    def spy(config, seed, start, stop):
        draws.append(start)
        return draw(config, seed, start, stop)

    with pytest.MonkeyPatch.context() as m:
        memo = traffic._ProfileMemo()
        m.setattr(traffic, "_memo", memo)
        m.setattr(traffic, "PROFILE_MEMO_BYTES", budget)
        m.setattr(traffic, "BLOCK_REQUESTS", cap)
        m.setattr(traffic, "draw_profiles", spy)
        for index, trial, stop in calls:
            config, seed = MEMO_KEYS[index]
            key = (config.N, config.K, config.d, config.rho, config.beta, seed)
            held = list(zip(memo.starts, memo.stops)) if memo.key == key else []
            charged = memo.charged if memo.key == key else 0
            inside = [(a, b) for a, b in held if a <= trial < b]
            draws.clear()
            block = sample_profile(config, seed, trial, stop)
            drawn = list(draws)
            first, end = trial, trial + block.trials
            want = trial + 1 if stop is None else max(stop, trial + 1)
            # every returned block equals the lone draws of its trials
            assert 1 <= block.trials and end <= want and block.config is config
            assert _same_draw(block, _lone_draws(config, seed, range(first, end)))
            assert block.total_users <= cap or block.trials == 1
            edges = {a for a, _ in held} | {b for _, b in held}
            if end < want and end not in edges:  # the cap ended it
                assert block.total_users + _lone_draw(config, seed, end).total_users > cap
            if inside:  # a slice of the held block: no draw, no new block
                assert drawn == [] and end <= inside[0][1]
                assert list(zip(memo.starts, memo.stops)) == held
                if block.files.size:
                    assert np.shares_memory(block.files, memo.blocks[memo.starts.index(inside[0][0])][1])
            else:  # one draw, up to the next held block, held only if it fits
                assert drawn == [trial]
                assert all(end <= a for a, _ in held if a > trial)
                cost = block.offsets.nbytes + block.files.nbytes + traffic.PROFILE_MEMO_ENTRY_BYTES
                fits = charged + cost <= budget
                assert list(zip(memo.starts, memo.stops)) == sorted(held + [(first, end)] * fits)
            # a key change drops every block, so only this key's blocks are held
            assert memo.key == key
            # held blocks never overlap, and the charge is theirs
            assert all(a < b for a, b in zip(memo.starts, memo.stops))
            assert all(b <= a for b, a in zip(memo.stops, memo.starts[1:]))
            charged = sum(o.nbytes + f.nbytes + traffic.PROFILE_MEMO_ENTRY_BYTES for o, f in memo.blocks)
            assert memo.charged == charged <= budget
            for (a, b), arrays in zip(zip(memo.starts, memo.stops), memo.blocks):
                assert _same_draw(RequestProfile(*arrays, config), _lone_draws(config, seed, range(a, b)))


def test_memo_charge_covers_traced_memory_of_tiny_profiles(monkeypatch, cold_memo):
    # K = d and rho small: most blocks of one trial hold no request, so the
    # entry overhead is nearly all a block costs
    config = make_config(K=10, d=10, N=10, rho=0.01)
    monkeypatch.setattr(traffic, "PROFILE_MEMO_BYTES", 200_000)
    sample_profile(config, 3, 0)  # first-call imports stay out of the trace
    charged = cold_memo.charged
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for trial in range(1, 1000):
            sample_profile(config, 3, trial)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 200 < len(cold_memo.blocks) < 1000
    assert grown <= cold_memo.charged - charged
    assert cold_memo.charged <= 200_000


def test_memo_hit_carries_the_callers_config_and_no_counts(cold_memo):
    first = make_config(M=2.0)
    second = dataclasses.replace(first, M=16.0, t0=0.5)  # neither enters the draw
    a = sample_profile(first, 4, 2)
    a.counts  # built on the first caller's profile only
    b = sample_profile(second, 4, 2)
    assert b.files.base is a.files and b.offsets.base is a.offsets  # a hit, not a second draw
    assert b.config is second and a.config is first
    assert "counts" in vars(a) and "counts" not in vars(b)
    assert not b.files.flags.writeable and not b.offsets.flags.writeable


def test_a_miss_draws_up_to_the_next_held_block(cold_memo):
    config = make_config()
    sample_profile(config, 4, 5)
    below = sample_profile(config, 4, 2, stop=10)  # trials 2 to 4: trial 5 is held
    inside = sample_profile(config, 4, 3, stop=10)  # a slice of trials 2 to 4
    past = sample_profile(config, 4, 6, stop=10)  # past every trial held: a block to the stop
    assert (below.trials, inside.trials, past.trials) == (3, 2, 4)
    assert list(zip(cold_memo.starts, cold_memo.stops)) == [(2, 5), (5, 6), (6, 10)]
    assert inside.files.base is cold_memo.blocks[0][1]
    assert _same_draw(inside, below.between(1, 3))


def _spy_blocks(monkeypatch):
    """The (start, trials, requests) of every block sample_profile draws."""
    blocks = []
    draw = traffic.draw_profiles

    def spy(config, seed, start, stop):
        offsets, files = draw(config, seed, start, stop)
        blocks.append((start, (offsets.size - 1) // config.num_clusters, files.size))
        return offsets, files

    monkeypatch.setattr(traffic, "draw_profiles", spy)
    return blocks


def test_run_keeps_every_trial_a_block_draws(monkeypatch, cold_memo):
    # ~25 requests a trial, blocks of ~12 trials and ~4 KB: the memo fills
    # part way through
    config = make_config(K=100, d=10, N=100, rho=0.25)
    budget = 12_000
    monkeypatch.setattr(traffic, "PROFILE_MEMO_BYTES", budget)
    monkeypatch.setattr(traffic, "BLOCK_REQUESTS", 300)
    blocks = _spy_blocks(monkeypatch)
    spec = montecarlo.ExperimentSpec(config=config, scheme="pcd", trials=60, seed=9)
    montecarlo.run_trials(spec, 0, 60)
    drawn = [t for start, count, _ in blocks for t in range(start, start + count)]
    assert drawn == list(range(60))  # each trial drawn once, in order
    # a block is kept whole, or not at all
    held = list(zip(cold_memo.starts, cold_memo.stops))
    assert set(held) <= {(start, start + count) for start, count, _ in blocks}
    assert 0 < len(held) < len(blocks)
    charged = sum(o.nbytes + f.nbytes + traffic.PROFILE_MEMO_ENTRY_BYTES for o, f in cold_memo.blocks)
    assert cold_memo.charged == charged <= budget
    for trial in range(60):  # kept or not, every trial is its lone draw
        assert _same_draw(sample_profile(config, 9, trial), _lone_draw(config, 9, trial))


def test_a_full_memo_still_draws_whole_blocks(monkeypatch, cold_memo):
    # a full memo keeps nothing, but run_trials still draws and scores
    # blocks that end only at BLOCK_REQUESTS requests
    config = make_config(K=100, d=10, N=100, rho=0.25)
    spec = montecarlo.ExperimentSpec(config=config, scheme="pcd", trials=1000, seed=9)
    kept = montecarlo.run_trials(spec, 0, 1000)
    monkeypatch.setattr(traffic, "_memo", traffic._ProfileMemo())
    monkeypatch.setattr(traffic, "PROFILE_MEMO_BYTES", 0)
    blocks = _spy_blocks(monkeypatch)
    rows = montecarlo.run_trials(spec, 0, 1000)
    assert rows.tobytes() == kept.tobytes()
    assert not traffic._memo.blocks and traffic._memo.charged == 0
    assert [start for start, _, _ in blocks] == list(np.cumsum([0] + [n for _, n, _ in blocks[:-1]]))
    assert sum(n for _, n, _ in blocks) == 1000 and len(blocks) > 1
    for (start, count, requests), (after, _, _) in zip(blocks, blocks[1:]):
        assert requests <= traffic.BLOCK_REQUESTS < requests + _lone_draw(config, 9, after).total_users


@pytest.mark.parametrize("cap", [None, 200])
def test_no_block_passes_the_request_cap(monkeypatch, cold_memo, cap):
    # about 410 requests a trial: the real cap ends blocks at ~19 trials
    config = make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1)
    if cap is not None:
        monkeypatch.setattr(traffic, "BLOCK_REQUESTS", cap)
    blocks = _spy_blocks(monkeypatch)
    trial = 0
    while trial < 48:
        trial += sample_profile(config, 3, trial, stop=48).trials
    assert sum(count for _, count, _ in blocks) == 48 and len(blocks) > 1
    for start, count, requests in blocks:
        assert count == 1 or requests <= traffic.BLOCK_REQUESTS
    if cap is not None:  # every profile outgrows this cap: blocks of one
        assert all(count == 1 for _, count, _ in blocks)
