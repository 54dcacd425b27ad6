import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cachematch import traffic
from cachematch.errors import DomainError
from cachematch.popularity import build_catalog
from cachematch.traffic import (
    MATCHING_ROLE,
    PROFILE_ROLE,
    SAMPLER_VERSION,
    sample_profile,
    stream,
)

from conftest import generator_state, make_config
from oracles import distinct_files, profile_from_counts


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


@pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (3, np.uint64), (4, np.uint64),
                                            (2, np.uint32), (2, np.int64), (2, np.float64)])
def test_stream_key_refuses_any_other_state_request(n_words, dtype):
    # the key of stream(seed, trial) serves Philox's one request and no other
    key = stream(5, 9, MATCHING_ROLE).bit_generator.seed_seq
    with pytest.raises(DomainError, match="2 uint64 words"):
        key.generate_state(n_words, dtype)
    words = key.generate_state(2, np.uint64)
    assert words.dtype == np.uint64 and words.tolist() == [5, 9]


def test_importing_the_program_leaves_numpy_random_unloaded():
    # the key type is made on the first stream, so the import does not pay for numpy.random
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




# --- the per-process profile memo -----------------------------------------

def _cold_draw(monkeypatch, config, seed, trial):
    """The profile sample_profile draws with an empty memo."""
    with monkeypatch.context() as m:
        m.setattr(traffic, "_memo", traffic._ProfileMemo())
        return sample_profile(config, seed, trial)


def _same_draw(a, b):
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.files, b.files)


def test_memo_hits_equal_cold_draws_across_key_changes(monkeypatch, cold_memo):
    base = make_config(K=60, d=10, N=40, rho=0.3, beta=0.0)
    keys = [
        (base, 5),
        (dataclasses.replace(base, beta=0.6), 5),  # beta alone changes the draw
        (dataclasses.replace(base, N=50), 5),
        (dataclasses.replace(base, K=80), 5),
        (dataclasses.replace(base, d=20), 5),
        (dataclasses.replace(base, rho=0.45), 5),
        (base, 6),
        (base, 5),  # back to the first key after the memo has dropped it
    ]
    for config, seed in keys:
        for i, trial in enumerate((0, 3, 1, 3, 0)):
            profile = sample_profile(config, seed, trial)
            assert _same_draw(profile, _cold_draw(monkeypatch, config, seed, trial))
            assert cold_memo.key == (config.N, config.K, config.d, config.rho, config.beta, seed)
            if i == 0:  # each key differs from the last, whose entries all went
                assert sorted(cold_memo.entries) == [0]
        assert sorted(cold_memo.entries) == [0, 1, 3]
        # a repeat call wraps the stored arrays: a hit, not a second draw
        assert sample_profile(config, seed, 1).files is cold_memo.entries[1][1]


def test_memo_stays_within_its_byte_budget(monkeypatch, cold_memo):
    config = make_config(K=100, d=10, N=100, rho=0.25)
    budget = 5000
    monkeypatch.setattr(traffic, "PROFILE_MEMO_BYTES", budget)
    for trial in range(12):
        profile = sample_profile(config, 9, trial)
        charged = sum(
            o.nbytes + f.nbytes + traffic.PROFILE_MEMO_ENTRY_BYTES
            for o, f in cold_memo.entries.values()
        )
        assert cold_memo.charged == charged <= budget
        assert _same_draw(profile, _cold_draw(monkeypatch, config, 9, trial))
    stored = len(cold_memo.entries)
    assert 0 < stored < 12
    for trial in range(12):  # trials past the budget are drawn again, unchanged
        assert _same_draw(sample_profile(config, 9, trial),
                          _cold_draw(monkeypatch, config, 9, trial))
    assert len(cold_memo.entries) == stored


def test_memo_charge_covers_traced_memory_of_tiny_profiles(monkeypatch, cold_memo):
    # K = d and rho small: most profiles hold no request, so the entry
    # overhead is nearly all an entry costs
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
    assert 200 < len(cold_memo.entries) < 1000
    assert grown <= cold_memo.charged - charged
    assert cold_memo.charged <= 200_000


def test_memo_hit_carries_the_callers_config_and_no_counts(cold_memo):
    first = make_config(M=2.0)
    second = dataclasses.replace(first, M=16.0, t0=0.5)  # neither enters the draw
    a = sample_profile(first, 4, 2)
    a.counts  # built on the first caller's profile only
    b = sample_profile(second, 4, 2)
    assert b.files is a.files and b.offsets is a.offsets
    assert b.config is second and a.config is first
    assert "counts" in vars(a) and "counts" not in vars(b)
    assert not b.files.flags.writeable and not b.offsets.flags.writeable
