import dataclasses
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachematch import montecarlo, traffic
from cachematch.config import load_config
from cachematch.errors import DomainError, HardInvariantViolation, IncompatibleScheme, InsufficientMemory
from cachematch.hcm import hcm_rate
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
    collect_trials,
    mean_and_stderr,
    plan_chunks,
    run_experiment,
    run_trials,
    summarize,
)
from cachematch.pam_shallow import pam_shallow_rate
from cachematch.pam_steep import steep_order_value
from cachematch.pcd import pcd_rate_shallow, pcd_rate_steep
from cachematch.popularity import build_catalog

from conftest import count_calls, make_config

SMALL = dict(K=20, d=10, N=20, M=2.0)
SMALL_STEEP = dict(K=20, d=10, N=20, M=2.0, beta=2.0)


def _spec(scheme, trials=5, seed=11, t_param=None, **overrides):
    return ExperimentSpec(
        config=make_config(**overrides),
        scheme=scheme,
        trials=trials,
        seed=seed,
        t_param=t_param,
    )


def analytic_rate(spec):
    return SCHEMES[spec.scheme].analytic(spec.config, spec.slack)


def test_compatibility_matrix():
    SCHEMES[PCD_SCHEME].check(make_config())
    SCHEMES[PCD_SCHEME].check(make_config(beta=2.0))
    SCHEMES[PAM_SHALLOW_SCHEME].check(make_config())
    SCHEMES[HCM_SCHEME].check(make_config(beta=0.5))
    SCHEMES[PAM_STEEP_SCHEME].check(make_config(beta=2.0))
    with pytest.raises(IncompatibleScheme):
        SCHEMES["broadcast"].check(make_config())
    with pytest.raises(IncompatibleScheme):
        SCHEMES[PAM_SHALLOW_SCHEME].check(make_config(beta=2.0))
    with pytest.raises(IncompatibleScheme):
        SCHEMES[HCM_SCHEME].check(make_config(beta=1.5))
    with pytest.raises(IncompatibleScheme):
        SCHEMES[PAM_STEEP_SCHEME].check(make_config(beta=0.5))
    with pytest.raises(IncompatibleScheme):
        SCHEMES[PAM_STEEP_SCHEME].check(make_config(K=100, d=1, beta=2.0))


def test_analytic_dispatch():
    assert analytic_rate(_spec(PCD_SCHEME)) == pcd_rate_shallow(make_config())
    steep = load_config("configs/steep.json")
    steep_spec = ExperimentSpec(config=steep, scheme=PCD_SCHEME, trials=1, seed=0)
    assert analytic_rate(steep_spec) == pcd_rate_steep(steep)
    assert analytic_rate(_spec(PAM_SHALLOW_SCHEME)) == pam_shallow_rate(make_config())
    ks_spec = ExperimentSpec(config=steep, scheme=PAM_STEEP_SCHEME, trials=1, seed=0)
    assert analytic_rate(ks_spec) == steep_order_value(steep)
    # hierarchical slack defaults to t0 and can be overridden
    assert analytic_rate(_spec(HCM_SCHEME)) == hcm_rate(make_config(), 1.0)
    assert analytic_rate(_spec(HCM_SCHEME, t_param=0.5)) == hcm_rate(
        make_config(), 0.5
    )


def test_hcm_plan_is_built_at_the_spec_slack(monkeypatch, cold_prepared):
    slacks = []
    original = montecarlo.build_color_plan

    def recording(config, catalog, t):
        slacks.append(t)
        return original(config, catalog, t)

    monkeypatch.setattr(montecarlo, "build_color_plan", recording)
    run_trials(_spec(HCM_SCHEME, trials=2, t_param=0.5), 0, 2)
    run_trials(_spec(HCM_SCHEME, trials=2), 0, 2)
    assert slacks == [0.5, 1.0]  # t_param, then the default t0


@pytest.mark.parametrize("scheme", [PCD_SCHEME, PAM_STEEP_SCHEME])
def test_trial_rows_are_keyed_by_absolute_index(scheme):
    overrides = SMALL_STEEP if scheme == PAM_STEEP_SCHEME else SMALL
    spec = _spec(scheme, trials=5, **overrides)
    full = run_trials(spec, 0, 5)
    part = run_trials(spec, 2, 3)
    assert np.array_equal(part, full[2:5])


def test_collect_preserves_trial_order_across_workers(pool_path):
    spec = _spec(PCD_SCHEME, trials=7, **SMALL)
    serial = collect_trials(spec, workers=1)
    parallel = collect_trials(spec, workers=2)
    assert serial.shape == (7, 3)
    assert np.array_equal(serial, parallel)


def test_reports_identical_across_workers(pool_path):
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    a = run_experiment(spec, workers=1).to_json(spec.config)
    b = run_experiment(spec, workers=2).to_json(spec.config)
    assert a == b


def test_consecutive_experiments_draw_each_profile_once(monkeypatch, cold_memo):
    # pcd then hcm at one seed, as a benchmark pass runs them: the second
    # experiment takes every profile from the memo
    draws = Counter()
    original = traffic.reseat

    def counting(seed, trial, role=traffic.PROFILE_ROLE):
        if role == traffic.PROFILE_ROLE:
            draws[seed, trial] += 1
        return original(seed, trial, role)

    monkeypatch.setattr(traffic, "reseat", counting)
    for scheme in (PCD_SCHEME, HCM_SCHEME):
        run_experiment(_spec(scheme, trials=6, seed=4, **SMALL))
    assert draws == {(4, trial): 1 for trial in range(6)}


# the montecarlo names each scheme's prepare calls
PREPARE_CALLEES = {
    PAM_SHALLOW_SCHEME: ("proportional_placement",),
    PAM_STEEP_SCHEME: ("build_knapsack", "solve_fractional_knapsack"),
    HCM_SCHEME: ("build_color_plan",),
}


def _small(scheme):
    return make_config(**(SMALL_STEEP if scheme == PAM_STEEP_SCHEME else SMALL))


def _reachable(value):
    """Every value reachable from a prepared state through dataclass fields
    and tuple items, the state included."""
    yield value
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _reachable(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _reachable(item)


@pytest.mark.parametrize("scheme", list(PREPARE_CALLEES))
def test_consecutive_experiments_prepare_once(monkeypatch, cold_prepared, scheme):
    calls = count_calls(monkeypatch, montecarlo, PREPARE_CALLEES[scheme])
    config = _small(scheme)
    for seed in (1, 2, 3):
        run_experiment(ExperimentSpec(config=config, scheme=scheme, trials=4, seed=seed))
    assert calls == {name: 1 for name in PREPARE_CALLEES[scheme]}


def test_a_changed_key_prepares_anew(monkeypatch, cold_prepared):
    calls = count_calls(monkeypatch, montecarlo, PREPARE_CALLEES[HCM_SCHEME])
    base = make_config(**SMALL)
    keys = [(base, base.t0), (base, 0.5)] + [
        (config, config.t0)
        for config in (dataclasses.replace(base, **change)
                       for change in ({"M": 3.0}, {"d": 5}, {"beta": 0.5}, {"t0": 0.5}))
    ]
    for prepares, (config, slack) in enumerate(keys, 1):
        for _ in range(2):
            montecarlo.prepared(HCM_SCHEME, config, slack)
        assert calls["build_color_plan"] == prepares


def test_insufficient_memory_is_raised_on_every_call(monkeypatch, cold_prepared):
    calls = count_calls(monkeypatch, montecarlo, PREPARE_CALLEES[PAM_SHALLOW_SCHEME])
    config = make_config(**{**SMALL, "M": 1.0})  # below the threshold N / d = 2
    for prepares in (1, 2):
        with pytest.raises(InsufficientMemory):
            montecarlo.prepared(PAM_SHALLOW_SCHEME, config, config.t0)
        assert calls["proportional_placement"] == prepares
    assert cold_prepared.cache_info().currsize == 0


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_prepared_states_are_read_only(cold_prepared, scheme):
    config = _small(scheme)
    run_trials(ExperimentSpec(config=config, scheme=scheme, trials=2, seed=1), 0, 2)
    state = montecarlo.prepared(scheme, config, config.t0)
    assert cold_prepared.cache_info().hits == 1  # the state the trials read
    for value in _reachable(state):
        assert not isinstance(value, (list, dict, set)), type(value)
        if dataclasses.is_dataclass(value):
            assert type(value).__dataclass_params__.frozen, type(value)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    assert (scheme == PCD_SCHEME) == (state is None)


@pytest.mark.parametrize("scheme", list(PREPARE_CALLEES))
def test_memo_holds_at_most_its_bound(cold_prepared, scheme):
    bound = cold_prepared.cache_info().maxsize
    assert bound == 4
    first_config = _small(scheme)
    first = montecarlo.prepared(scheme, first_config, first_config.t0)
    for extra in range(1, bound + 2):
        config = dataclasses.replace(first_config, M=first_config.M + extra)
        montecarlo.prepared(scheme, config, config.t0)
        assert cold_prepared.cache_info().currsize == min(extra + 1, bound)
    again = montecarlo.prepared(scheme, first_config, first_config.t0)
    assert again is not first  # evicted, then prepared anew
    assert cold_prepared.cache_info().currsize == bound
    arrays = 0
    for a, b in zip(_reachable(first), _reachable(again), strict=True):
        if isinstance(a, np.ndarray):
            arrays += 1
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        elif not dataclasses.is_dataclass(a):
            assert a == b
    assert arrays >= 2


# (scheme, workload config): the three the prepared docstring charges
CHARGED = [
    (HCM_SCHEME, dict(K=6000, d=60, N=6000, M=16.0, rho=0.05, beta=0.0, t0=0.2)),
    (PAM_SHALLOW_SCHEME, dict(K=1200, d=120, N=1200, M=16.0, rho=0.2, beta=0.0, t0=1.0)),
    (PAM_STEEP_SCHEME, dict(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1)),
]


@pytest.mark.parametrize("scheme, fields", CHARGED)
def test_a_held_state_weighs_less_than_its_catalog(scheme, fields):
    config = make_config(**fields)
    catalog = build_catalog(config.N, config.beta)
    SCHEMES[scheme].prepare(config, catalog, config.t0)  # imports and first-use caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = SCHEMES[scheme].prepare(config, catalog, config.t0)
        held = tracemalloc.get_traced_memory()[0] - before
        fresh = build_catalog.__wrapped__(config.N, config.beta)
        catalog_bytes = tracemalloc.get_traced_memory()[0] - before - held
    finally:
        tracemalloc.stop()
    assert state is not None and fresh.N == config.N
    assert 0 < held < catalog_bytes
    assert held / config.N <= 32  # bytes per file, as the docstring charges


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_reports_match_on_cold_and_warm_memos(pool_path, cold_prepared, scheme):
    spec = ExperimentSpec(config=_small(scheme), scheme=scheme, trials=6, seed=5)
    # a pool forked before this spec is prepared, so its workers prepare it
    # themselves on the first parallel run, and find it on the second
    montecarlo._drop_pool()
    collect_trials(_spec(PCD_SCHEME, trials=6, **{**SMALL, "M": 5.0}), workers=2)
    cold_prepared.cache_clear()
    texts = [run_experiment(spec, workers=workers).to_json(spec.config) for workers in (2, 2, 1)]
    cold_prepared.cache_clear()
    texts.append(run_experiment(spec, workers=1).to_json(spec.config))
    assert texts.count(texts[0]) == 4


def test_report_recomputes_from_rows():
    spec = _spec(PCD_SCHEME, trials=8, **SMALL)
    report = run_experiment(spec)
    rows = collect_trials(spec)
    mean = float(rows[:, 0].mean())
    stderr = float(rows[:, 0].std(ddof=1) / math.sqrt(8))
    assert report.mean_rate == mean
    assert report.stderr == stderr
    assert report.coded_mean == float(rows[:, 1].mean())
    assert report.unmatched_mean == float(rows[:, 2].mean())
    assert report.analytic_rate == analytic_rate(spec)
    assert isinstance(report.bound_satisfied, bool)
    assert report.bound_satisfied == (mean <= report.analytic_rate + 3.0 * stderr)


def _bits(x):
    return float(x).hex()


@given(
    n=st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 300), st.integers(8180, 8200)),
    kind=st.sampled_from(["uniform", "integers", "offset", "spread"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, kind="offset", seed=0)
@example(n=2, kind="integers", seed=1)
@example(n=8192, kind="offset", seed=2)
@settings(max_examples=150, deadline=None)
def test_report_statistics_equal_numpys_bit_for_bit(n, kind, seed):
    rng = np.random.default_rng(seed)
    rows = {
        "uniform": lambda: rng.random((n, 3)),
        "integers": lambda: rng.integers(0, 400, (n, 3)).astype(np.float64),  # as unmatched counts are
        "offset": lambda: 1e9 + rng.random((n, 3)),  # the mean cancels most of each value's digits
        "spread": lambda: rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, (n, 3)),
    }[kind]()
    for col in range(3):
        values = rows[:, col]  # strided, as summarize reads it
        mean, stderr = mean_and_stderr(values)
        assert _bits(mean) == _bits(values.mean())
        want = 0.0 if n == 1 else values.std(ddof=1) / math.sqrt(n)
        assert _bits(stderr) == _bits(want)
    report = summarize(_spec(PCD_SCHEME, trials=n, **SMALL), rows)
    assert _bits(report.mean_rate) == _bits(rows[:, 0].mean())
    assert _bits(report.coded_mean) == _bits(rows[:, 1].mean())
    assert _bits(report.unmatched_mean) == _bits(rows[:, 2].mean())


def test_single_trial_has_zero_stderr():
    report = run_experiment(_spec(PCD_SCHEME, trials=1, **SMALL))
    assert report.stderr == 0.0


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_row_semantics(scheme):
    if scheme == PAM_STEEP_SCHEME:
        overrides = SMALL_STEEP
    else:
        overrides = SMALL
    spec = _spec(scheme, trials=10, **overrides)
    rows = collect_trials(spec)
    assert rows.shape == (10, 3)
    assert np.all(np.isfinite(rows))
    assert np.all(rows >= 0.0)
    if scheme in (PAM_SHALLOW_SCHEME, PAM_STEEP_SCHEME):
        # replication schemes have no coded component
        assert np.all(rows[:, 1] == 0.0)
    else:
        # total is coded + unmatched, clamped at the user count
        assert np.all(rows[:, 0] <= rows[:, 1] + rows[:, 2] + 1e-12)
    if scheme == PAM_STEEP_SCHEME:
        # server broadcasts at most one file per unmatched request
        assert np.all(rows[:, 0] <= rows[:, 2] + 1e-12)


def test_json_report_is_canonical():
    spec = _spec(PCD_SCHEME, trials=4, **SMALL)
    text = run_experiment(spec).to_json(spec.config)
    assert text == run_experiment(spec).to_json(spec.config)
    assert " " not in text
    payload = json.loads(text)
    assert sorted(payload) == list(payload)  # written with sorted keys
    assert set(payload["config"]) == {"k", "d", "n", "m", "rho", "beta", "t0"}
    assert isinstance(payload["bound_satisfied"], bool)
    assert payload["trials"] == 4
    assert payload["seed"] == 11


def test_rejects_bad_specs():
    with pytest.raises(IncompatibleScheme):
        collect_trials(_spec(PCD_SCHEME, trials=0, **SMALL))
    with pytest.raises(IncompatibleScheme):
        collect_trials(_spec("broadcast", trials=2, **SMALL))
    with pytest.raises(HardInvariantViolation):
        collect_trials(_spec(PCD_SCHEME, trials=2, rho=0.6))


@pytest.mark.parametrize("workers", [0, -1])
def test_rejects_workers_below_one(workers):
    with pytest.raises(DomainError):
        collect_trials(_spec(PCD_SCHEME, trials=2, **SMALL), workers=workers)


def test_chunk_plans_cover_trials_in_order():
    spec = _spec(PCD_SCHEME, trials=20, **SMALL)
    full = run_trials(spec, 0, 20)
    for trials in range(1, 21):
        for workers in range(1, 9):
            plan = plan_chunks(trials, workers)
            assert 1 <= len(plan) <= min(trials, workers)
            assert all(count >= 1 for _, count in plan)
            assert [start for start, _ in plan] == [sum(c for _, c in plan[:i]) for i in range(len(plan))]
            assert sum(count for _, count in plan) == trials
            rows = np.concatenate([run_trials(spec, start, count) for start, count in plan])
            assert np.array_equal(rows, full[:trials])


@pytest.mark.parametrize("cpus", [1, 2, 8, None])
def test_chunk_plans_clamp_workers_to_trials_and_cpus(monkeypatch, cpus):
    # a pure plan: no worker count here reaches a process pool
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    for trials in (1, 2, 7, 100, 10_001):
        plan = plan_chunks(trials, 10_000)
        assert 1 <= len(plan) <= min(trials, cpus or 1)
        assert sum(count for _, count in plan) == trials


def test_pool_is_sized_by_the_chunk_plan(monkeypatch, pool_path):
    asked = []

    def record(workers):
        asked.append(workers)
        raise RuntimeError("stopped before any worker starts")

    monkeypatch.setattr(montecarlo, "_worker_pool", record)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    for workers in (3, 10_000):
        with pytest.raises(RuntimeError, match="stopped"):
            collect_trials(spec, workers=workers)
    assert asked == [2, 2]


@pytest.fixture
def pool_starts(monkeypatch):
    """Count the pools collect_trials starts, from no cached pool."""
    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    montecarlo._drop_pool()
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    # as on a 4-CPU machine, so a 3-worker call is not clamped to fewer
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    yield starts
    montecarlo._drop_pool()


def test_one_pool_serves_consecutive_experiments(pool_starts, pool_path):
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    serial = run_experiment(spec, workers=1).to_json(spec.config)
    assert run_experiment(spec, workers=2).to_json(spec.config) == serial
    assert run_experiment(spec, workers=2).to_json(spec.config) == serial
    assert pool_starts == [2]


def test_pool_is_replaced_only_to_grow(pool_starts, pool_path):
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    serial = collect_trials(spec, workers=1)
    for workers in (2, 3, 2):
        assert np.array_equal(collect_trials(spec, workers=workers), serial)
    assert pool_starts == [2, 3]


def test_broken_pool_is_dropped(pool_starts, pool_path):
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    serial = collect_trials(spec, workers=1)
    assert np.array_equal(collect_trials(spec, workers=2), serial)
    pool = montecarlo._pool
    worker = next(iter(pool._processes.values()))
    worker.terminate()
    # wait on the sentinel, not join: the pool's own thread reaps the worker
    assert wait([worker.sentinel], timeout=10.0)
    deadline = time.monotonic() + 10.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)  # let the pool notice the lost worker
    with pytest.raises(BrokenProcessPool):
        collect_trials(spec, workers=2)
    assert np.array_equal(collect_trials(spec, workers=2), serial)
    assert pool_starts == [2, 2]


def _expiring_clock(k):
    """A perf_counter for montecarlo that reads 0 for the deadline and the
    checks before the first k blocks, then +inf: the head runs k blocks, or
    every trial when only the last is left, as one trial is never fanned out."""
    calls = itertools.count()
    return lambda: 0.0 if next(calls) <= k else math.inf


def _head_and_pool(monkeypatch, scheme, head, block):
    """Rows of a 6-trial parallel run scored in blocks of `block` trials,
    whose head sees the deadline pass after the number of blocks `head`
    names: byte-identical to the serial rows, and the head runs whole blocks."""
    trials = 6
    k = {"none": 0, "one": 1, "all but one": trials - 1, "all": trials}[head]
    spec = _spec(scheme, trials=trials, **(SMALL_STEEP if scheme == PAM_STEEP_SCHEME else SMALL))
    serial = collect_trials(spec, workers=1)
    in_process = []
    original = montecarlo.blocks

    # wraps the block loop, not run_trials, which the pool pickles by name
    def recording(config, seed, start, stop, deadline=None):
        done = start
        for trials, block in original(config, seed, start, stop, deadline):
            done = trials.stop
            yield trials, block
        in_process.append((start, done - start))

    monkeypatch.setattr(montecarlo, "blocks", recording)
    monkeypatch.setattr(montecarlo, "perf_counter", _expiring_clock(k))
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    # the deadline is read before each block
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", block * spec.config.K)
    assert collect_trials(spec, workers=2).tobytes() == serial.tobytes()
    # the head; pool chunks run in other processes
    head_trials = min(trials, k * block)
    assert in_process == [(0, trials if trials - head_trials == 1 else head_trials)]


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("head", ["none", "one", "all but one", "all"])
def test_head_and_pool_rows_match_serial(monkeypatch, scheme, head):
    _head_and_pool(monkeypatch, scheme, head, block=1)


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("head", ["none", "one", "all but one", "all"])
def test_head_runs_whole_blocks(monkeypatch, scheme, head):
    _head_and_pool(monkeypatch, scheme, head, block=4)


def test_head_budget_starts_after_prepare(monkeypatch, pool_starts, cold_prepared):
    spec = _spec(PAM_SHALLOW_SCHEME, trials=6, **SMALL)
    serial = collect_trials(spec, workers=1)
    cold_prepared.cache_clear()  # so the parallel run prepares again, slowly
    now = [0.0]
    original = montecarlo.proportional_placement

    def slow_prepare(config, catalog):
        now[0] += 1.0  # a prepare far longer than the budget
        return original(config, catalog)

    monkeypatch.setattr(montecarlo, "proportional_placement", slow_prepare)
    monkeypatch.setattr(montecarlo, "perf_counter", lambda: now[0])
    assert np.array_equal(collect_trials(spec, workers=2), serial)
    assert now == [1.0]  # one prepare, in the head
    assert pool_starts == []  # the trials themselves took no time


def test_run_within_the_budget_starts_no_pool(monkeypatch, pool_starts):
    spec = _spec(PCD_SCHEME, trials=6, **SMALL)
    serial = run_experiment(spec, workers=1).to_json(spec.config)
    monkeypatch.setattr(montecarlo, "perf_counter", lambda: 0.0)  # the budget never runs out
    assert run_experiment(spec, workers=2).to_json(spec.config) == serial
    assert pool_starts == []


@pytest.mark.parametrize("workers, cpus, trials", [(1, 2, 3), (2, 1, 3), (2, 2, 1)])
def test_one_chunk_runs_read_no_clock(monkeypatch, workers, cpus, trials):
    def clock():
        raise AssertionError("a run of one chunk has no deadline")

    monkeypatch.setattr(montecarlo, "perf_counter", clock)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    spec = _spec(PCD_SCHEME, trials=trials, **SMALL)
    assert collect_trials(spec, workers=workers).shape == (trials, 3)
