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

These are the table's first rows; the other named checks have none yet.
"""

import dataclasses

import numpy as np
import pytest

from cachematch import hcm, pam_shallow, pam_steep, pcd
from cachematch.config import load_config
from cachematch.montecarlo import ExperimentSpec, collect_trials
from cachematch.verification import FAIL, PASS, verify_config

SEED = 1
TRIALS = 100


def halved_coded_rates(monkeypatch):
    """pcd and hcm charge half the coded-delivery rate."""
    for module in (pcd, hcm):
        monkeypatch.setattr(module, "coded_rates", lambda *args, _rates=module.coded_rates: _rates(*args) / 2)


def never_evict(monkeypatch):
    """pam-shallow finds no violating cache, so it evicts no request."""
    monkeypatch.setattr(pam_shallow, "_violating", lambda loads: np.zeros(loads.shape, dtype=bool))


def unpicked_walk(monkeypatch):
    """pam-steep serves each contended run min(r, c), as if no pick took
    another run's cache."""
    monkeypatch.setattr(pam_steep, "_walk_contended", lambda block, holders, bounds, walked, most, *rest: most)


def vacuous(item, why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


ONE_SIDED = "a *-rate-mc check is one-sided, so a rate below the analytic upper bound passes"
UNREAD_WALK = "no Monte Carlo check reads pam-steep, and mlp-structural walks _walk_runs, not serve's walk"

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
    pytest.param(None, "steep", 4.0, unpicked_walk, id="any-unpicked-walk-M4",
                 marks=vacuous(4, UNREAD_WALK)),
    pytest.param(None, "steep", 16.0, unpicked_walk, id="any-unpicked-walk-M16",
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
])
def test_each_mutant_changes_its_schemes_trials(monkeypatch, mutant, scheme, config_name, M):
    # an equivalent mutant would make its rows' findings void
    spec = ExperimentSpec(config=_config(config_name, M), scheme=scheme, trials=TRIALS, seed=SEED)
    real = collect_trials(spec)
    mutant(monkeypatch)
    assert not np.array_equal(collect_trials(spec), real)


@pytest.mark.parametrize("check, config_name, M, mutant", [row.values for row in ROWS],
                         ids=[row.id for row in ROWS])
def test_the_check_passes_on_the_real_code(check, config_name, M, mutant):
    statuses = _statuses(config_name, M)
    if check is None:
        assert FAIL not in statuses.values()
    else:
        assert statuses[check] == PASS


@pytest.mark.parametrize("check, config_name, M, mutant", ROWS)
def test_the_check_fails_under_its_mutant(monkeypatch, check, config_name, M, mutant):
    mutant(monkeypatch)
    statuses = _statuses(config_name, M)
    if check is None:
        assert FAIL in statuses.values()
    else:
        assert statuses[check] == FAIL
