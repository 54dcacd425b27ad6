import itertools
import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from cachematch import montecarlo, traffic
from cachematch.config import load_config
from cachematch.errors import DomainError, HardInvariantViolation, IncompatibleScheme
from cachematch.hcm import hcm_rate
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
    collect_trials,
    plan_chunks,
    run_experiment,
    run_trials,
)
from cachematch.pam_shallow import pam_shallow_rate
from cachematch.pam_steep import steep_order_value
from cachematch.pcd import pcd_rate_shallow, pcd_rate_steep

from conftest import make_config

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
    assert analytic_rate(_spec(PCD_SCHEME)) == pcd_rate_shallow(make_config()).total
    steep = load_config("configs/steep.json")
    steep_spec = ExperimentSpec(config=steep, scheme=PCD_SCHEME, trials=1, seed=0)
    assert analytic_rate(steep_spec) == pcd_rate_steep(steep).total
    assert analytic_rate(_spec(PAM_SHALLOW_SCHEME)) == pam_shallow_rate(make_config())
    ks_spec = ExperimentSpec(config=steep, scheme=PAM_STEEP_SCHEME, trials=1, seed=0)
    assert analytic_rate(ks_spec) == steep_order_value(steep)
    # hierarchical slack defaults to t0 and can be overridden
    assert analytic_rate(_spec(HCM_SCHEME)) == hcm_rate(make_config(), 1.0)
    assert analytic_rate(_spec(HCM_SCHEME, t_param=0.5)) == hcm_rate(
        make_config(), 0.5
    )


def test_hcm_plan_is_built_at_the_spec_slack(monkeypatch):
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
    original = traffic.stream

    def counting(seed, trial, role=traffic.PROFILE_ROLE):
        if role == traffic.PROFILE_ROLE:
            draws[seed, trial] += 1
        return original(seed, trial, role)

    monkeypatch.setattr(traffic, "stream", counting)
    for scheme in (PCD_SCHEME, HCM_SCHEME):
        run_experiment(_spec(scheme, trials=6, seed=4, **SMALL))
    assert draws == {(4, trial): 1 for trial in range(6)}


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
    original = montecarlo.run_trials

    def recording(spec, start, count, budget=None):
        rows = original(spec, start, count, budget)
        in_process.append((start, len(rows)))
        return rows

    monkeypatch.setattr(montecarlo, "run_trials", recording)
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


def test_head_budget_starts_after_prepare(monkeypatch, pool_starts):
    spec = _spec(PAM_SHALLOW_SCHEME, trials=6, **SMALL)
    serial = collect_trials(spec, workers=1)
    now = [0.0]
    original = montecarlo.proportional_placement

    def slow_prepare(config, catalog):
        now[0] += 1.0  # a prepare far longer than the budget
        return original(config, catalog)

    monkeypatch.setattr(montecarlo, "proportional_placement", slow_prepare)
    monkeypatch.setattr(montecarlo, "perf_counter", lambda: now[0])
    assert np.array_equal(collect_trials(spec, workers=2), serial)
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
