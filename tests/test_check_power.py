"""Check power: each row names a check, a config and a mutant, and the check
passes on the real code and fails under the mutant (mutation testing;
DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
1978).

A mutant is a monkeypatch of one src callee, made on the module name the
trial loop looks up at call time, so verify_config runs it.  A row whose
check cannot catch its mutant today is a strict xfail naming the ROADMAP
item that will make it live: the gap is a finding, and the row XPASSes,
failing this test, once a check gains the power.  A row with no check
asks for any named check to fail.

A mutant of a prepare callee (pam-steep's knapsack solve) is patched on
montecarlo's name, which SCHEMES' prepare looks up, and each test empties
montecarlo.prepared after patching, so the checks see the mutant's
placement, and again when it ends.  The walk mutant is patched on
pam_steep's name, which cluster_matchings looks up.

The table covers pam-feasible-all-matched, the knapsack checks,
mlp-structural and the *-rate-mc checks; the other named checks have no row
yet.
"""

import dataclasses

import numpy as np
import pytest

from cachematch import delivery, montecarlo, pam_shallow, pam_steep
from cachematch.config import load_config
from cachematch.montecarlo import PAM_STEEP_SCHEME, ExperimentSpec, blocks, collect_trials, prepared
from cachematch.pam_steep import cluster_matchings
from cachematch.traffic import matching_streams
from cachematch.verification import FAIL, PASS, verify_config

SEED = 1
TRIALS = 100


def halved_coded_rates(monkeypatch):
    """pcd and hcm charge half the coded-delivery rate: their one kernel,
    delivery.first_d_rows, gathers its rates through delivery.coded_rates."""
    monkeypatch.setattr(delivery, "coded_rates", lambda *args, _rates=delivery.coded_rates: _rates(*args) / 2)


def never_evict(monkeypatch):
    """pam-shallow finds no violating cache, so it evicts no request."""
    monkeypatch.setattr(pam_shallow, "_violating", lambda loads: np.zeros(loads.shape, dtype=bool))


def unpicked_walk(monkeypatch):
    """pam-steep serves each contended run min(r, c), as if no pick took
    another run's cache."""
    monkeypatch.setattr(pam_steep, "_walk_contended", lambda block, holders, bounds, walked, most, *rest: most)


def overfull_knapsack(monkeypatch):
    """pam-steep's knapsack keeps whole the first file that does not fit."""
    solve = montecarlo.solve_fractional_knapsack

    def overfull(instance):
        order = np.argsort(-(instance.values / instance.weights), kind="stable")
        filled = instance.weights[order].cumsum()
        whole = int(filled.searchsorted(instance.capacity, side="right"))
        return solve(dataclasses.replace(instance, capacity=float(filled[whole])))

    monkeypatch.setattr(montecarlo, "solve_fractional_knapsack", overfull)


def index_order_knapsack(monkeypatch):
    """pam-steep's knapsack takes files whole in index order, not by density."""
    solve = montecarlo.solve_fractional_knapsack

    def by_index(instance):
        # densities N, N - 1, ..., 1: the stable densest-first order is index order
        ranks = np.arange(len(instance.values), 0, -1, dtype=np.float64)
        return solve(dataclasses.replace(instance, values=instance.weights * ranks))

    monkeypatch.setattr(montecarlo, "solve_fractional_knapsack", by_index)


def unfiltered_walk(monkeypatch):
    """The most-popular-last walk picks among all of a file's holders, as if
    no earlier run of its cluster had taken one."""

    def walk(files, bounds, firsts, holders, u):
        matched, server, unmatched, pos = [], [], 0, 0
        for first, stop in zip(firsts, firsts[1:]):
            for j in range(stop - 1, first - 1, -1):
                n, r = files[j], bounds[j + 1] - bounds[j]
                cand = list(holders[n])
                served = min(r, len(cand))
                matched += [(n, cand.pop(int(x * len(cand)))) for x in u[pos:pos + served]]
                if served < r:
                    unmatched += r - served
                    server.append(n)
                pos += r
        return matched, unmatched, server

    monkeypatch.setattr(pam_steep, "_walk_runs", walk)


def vacuous(item, why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


ONE_SIDED = "a *-rate-mc check is one-sided, so a rate below the analytic upper bound passes"
UNREAD_WALK = ("no Monte Carlo check reads pam-steep, and at M = 4 the mutant changes none of the 20 trials "
               "on which mlp-structural compares serve with the walk (2 of 50, 4 of 100)")

ROWS = [
    pytest.param("pam-feasible-all-matched", "default", 16.0, never_evict, id="feasible-never-evict-M16"),
    pytest.param("pam-feasible-all-matched", "default", 20.0, never_evict, id="feasible-never-evict-M20"),
    pytest.param("pam-rate-mc", "default", 16.0, never_evict, id="pam-rate-never-evict-M16",
                 marks=vacuous(8, "pam-shallow's formula sits at rho*K, far above its simulated rate")),
    pytest.param("pcd-rate-mc", "default", 2.0, halved_coded_rates, id="pcd-rate-halved-M2",
                 marks=vacuous(3, ONE_SIDED)),
    pytest.param("pcd-rate-mc", "default", 16.0, halved_coded_rates, id="pcd-rate-halved-M16",
                 marks=vacuous(3, ONE_SIDED)),
    pytest.param("hcm-rate-mc", "default", 16.0, halved_coded_rates, id="hcm-rate-halved-M16",
                 marks=vacuous(3, ONE_SIDED)),
    pytest.param("pcd-rate-mc", "steep", 4.0, halved_coded_rates, id="pcd-rate-halved-steep",
                 marks=vacuous(3, ONE_SIDED)),
    pytest.param("knapsack-memory", "steep", 4.0, overfull_knapsack, id="knapsack-memory-overfull-M4"),
    pytest.param("knapsack-density-prefix", "steep", 4.0, index_order_knapsack,
                 id="knapsack-density-prefix-index-order-M4"),
    pytest.param("mlp-structural", "steep", 4.0, unfiltered_walk, id="mlp-structural-unfiltered-walk-M4"),
    pytest.param("mlp-structural", "steep", 16.0, unpicked_walk, id="mlp-structural-unpicked-walk-M16"),
    pytest.param(None, "steep", 4.0, unpicked_walk, id="any-unpicked-walk-M4",
                 marks=vacuous(4, UNREAD_WALK)),
]


def _config(config_name, M):
    return dataclasses.replace(load_config(f"configs/{config_name}.json"), M=M)


def _statuses(config_name, M):
    return {c.name: c.status for c in verify_config(_config(config_name, M), seed=SEED, trials=TRIALS).checks}


@pytest.mark.parametrize("mutant, scheme, config_name, M", [
    (halved_coded_rates, "pcd", "default", 16.0),
    (halved_coded_rates, "hcm", "default", 16.0),
    (never_evict, "pam-shallow", "default", 16.0),
    (unpicked_walk, "pam-steep", "steep", 4.0),
    (unpicked_walk, "pam-steep", "steep", 16.0),
    (overfull_knapsack, "pam-steep", "steep", 4.0),
    (index_order_knapsack, "pam-steep", "steep", 4.0),
])
def test_each_mutant_changes_its_schemes_trials(monkeypatch, cold_prepared, mutant, scheme, config_name, M):
    # an equivalent mutant would make its rows' findings void
    spec = ExperimentSpec(config=_config(config_name, M), scheme=scheme, trials=TRIALS, seed=SEED)
    real = collect_trials(spec)
    mutant(monkeypatch)
    cold_prepared.cache_clear()
    assert not np.array_equal(collect_trials(spec), real)


def _walked_matchings(config):
    """The matched pairs of every (trial, cluster) mlp-structural walks."""
    placement = prepared(PAM_STEEP_SCHEME, config, config.t0)
    return [out.matched for trials, block in blocks(config, SEED, 0, 20)
            for out in cluster_matchings(block, placement, matching_streams(SEED, trials))]


def test_the_walk_mutant_changes_the_walks_matchings(monkeypatch):
    # serve never walks _walk_runs, so the trials cannot show this mutant
    config = _config("steep", 4.0)
    real = _walked_matchings(config)
    unfiltered_walk(monkeypatch)
    assert _walked_matchings(config) != real


@pytest.mark.parametrize("check, config_name, M, mutant", [row.values for row in ROWS],
                         ids=[row.id for row in ROWS])
def test_the_check_passes_on_the_real_code(check, config_name, M, mutant):
    statuses = _statuses(config_name, M)
    assert FAIL not in statuses.values()
    if check is not None:
        assert statuses[check] == PASS


@pytest.mark.parametrize("check, config_name, M, mutant", ROWS)
def test_the_check_fails_under_its_mutant(monkeypatch, cold_prepared, check, config_name, M, mutant):
    mutant(monkeypatch)
    cold_prepared.cache_clear()
    statuses = _statuses(config_name, M)
    if check is None:
        assert FAIL in statuses.values()
    else:
        assert statuses[check] == FAIL
