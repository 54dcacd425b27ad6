import dataclasses
import json

import numpy as np
import pytest

from cachematch import verification
from cachematch.config import load_config
from cachematch.errors import HardInvariantViolation
from cachematch.montecarlo import ExperimentSpec, run_experiment
from cachematch.traffic import sample_profile
from cachematch.verification import FAIL, PASS, SKIPPED, verify_config

from conftest import make_config

CHECK_NAMES = [
    "partial-sum-sandwich",
    "poisson-excess-vs-mode",
    "poisson-conditional-mean",
    "poisson-chernoff-tail",
    "excess-factorial-bound",
    "cluster-unmatched-analytic",
    "unmatched-tail-mc",
    "pcd-rate-mc",
    "distinct-coverage-tail",
    "replication-threshold",
    "load-decay-positive",
    "pam-rate-mc",
    "pam-feasible-all-matched",
    "gap-ratio",
    "lower-bound-consistency",
    "hcm-dominance",
    "hcm-exact-branch",
    "hcm-chain-bound",
    "hcm-rate-mc",
    "knapsack-memory",
    "knapsack-density-prefix",
    "mlp-structural",
    "steep-envelope",
]


STEEP_ONLY = dict.fromkeys(
    ["knapsack-memory", "knapsack-density-prefix", "mlp-structural", "steep-envelope"],
    "requires beta > 1 and d >= 2",
)
SHALLOW_ONLY = {
    "partial-sum-sandwich": "sandwich envelope applies to beta in [0, 1)",
    "distinct-coverage-tail": "coverage tail is proved for uniform popularity",
    "gap-ratio": "shallow rate requires beta in [0, 1)",
    "lower-bound-consistency": "lower-bound report requires beta in [0, 1)",
    **dict.fromkeys(
        [
            "replication-threshold",
            "load-decay-positive",
            "pam-rate-mc",
            "pam-feasible-all-matched",
            "hcm-dominance",
            "hcm-exact-branch",
            "hcm-chain-bound",
            "hcm-rate-mc",
        ],
        "requires beta in [0, 1)",
    ),
}
BELOW_THRESHOLD = dict.fromkeys(
    ["pam-rate-mc", "pam-feasible-all-matched"], "memory below replication threshold"
)
EXACT_BRANCH = {"hcm-exact-branch": "memory below the exact-branch threshold ceil(N/chi)"}


def _tail_floor(d, floor):
    reason = f"cluster floor not met (d = {d} < {floor}); t0-tail formulas are not guaranteed"
    return dict.fromkeys(["unmatched-tail-mc", "pcd-rate-mc"], reason)


def _steep(**overrides):
    return dataclasses.replace(load_config("configs/steep.json"), **overrides)


def _statuses(report):
    return {c.name: c.status for c in report.checks}


@pytest.mark.parametrize(
    "config, skipped",
    [
        pytest.param(
            lambda: load_config("configs/default.json"),
            {**BELOW_THRESHOLD, **EXACT_BRANCH, **STEEP_ONLY},
            id="default",
        ),
        pytest.param(_steep, SHALLOW_ONLY, id="steep"),
        pytest.param(
            lambda: make_config(M=2.0),
            {
                **_tail_floor(10, 95.37),
                **BELOW_THRESHOLD,
                **EXACT_BRANCH,
                "hcm-rate-mc": "cluster floor not met",
                **STEEP_ONLY,
            },
            id="below-floor",
        ),
        pytest.param(
            # above the replication threshold N/d = 10, so only the floor skips pam-rate-mc
            make_config,
            {
                **_tail_floor(10, 95.37),
                "pam-rate-mc": "cluster floor not met",
                "gap-ratio": "gap guarantee needs M < (1 - e^(-1)/2) * N / (2*d)",
                **EXACT_BRANCH,
                "hcm-rate-mc": "cluster floor not met",
                **STEEP_ONLY,
            },
            id="below-floor-above-threshold",
        ),
        pytest.param(
            lambda: _steep(d=1),
            {**SHALLOW_ONLY, **_tail_floor(1, 15.07), **STEEP_ONLY},
            id="steep-d1",
        ),
    ],
)
def test_skipped_checks_and_their_reasons(config, skipped):
    report = verify_config(config(), trials=10)
    assert report.all_pass
    assert {c.name: c.detail for c in report.checks if c.status == SKIPPED} == skipped


def test_steep_envelope_at_zero_memory(monkeypatch):
    # the envelope is K^(1/beta) = 16 once d*M <= 1; pcd-rate-mc is not asserted,
    # as steep pcd bills out-of-pool users as unicasts below M = 1
    def envelope():
        report = verify_config(_steep(M=0.0), trials=10)
        return next(c for c in report.checks if c.name == "steep-envelope")

    outcome = envelope()
    assert outcome.status == PASS
    assert outcome.detail.startswith("order value 16, ")
    # the check derives the order value itself, so a wrong envelope fails it
    monkeypatch.setattr(verification, "steep_order_value", lambda config: 15.0)
    assert envelope().status == FAIL


def test_default_config_has_no_failures():
    report = verify_config(load_config("configs/default.json"), trials=60)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.all_pass
    by_name = _statuses(report)
    # d = 60 clears the cluster floor, so the simulation checks really ran
    assert by_name["unmatched-tail-mc"] == PASS
    assert by_name["pcd-rate-mc"] == PASS
    assert by_name["hcm-rate-mc"] == PASS
    # M = 2 sits below the replication threshold N/((1-beta)*d) = 10
    assert by_name["replication-threshold"] == PASS
    assert by_name["pam-rate-mc"] == SKIPPED
    assert by_name["pam-feasible-all-matched"] == SKIPPED
    # steep-only checks cannot run at beta = 0
    assert by_name["knapsack-memory"] == SKIPPED
    assert by_name["steep-envelope"] == SKIPPED


def test_above_threshold_runs_replication_checks():
    config = dataclasses.replace(load_config("configs/default.json"), M=10.0)
    report = verify_config(config, trials=20)
    by_name = _statuses(report)
    assert by_name["replication-threshold"] == PASS
    assert by_name["pam-rate-mc"] == PASS
    assert by_name["pam-feasible-all-matched"] == PASS
    assert report.all_pass
    # each rate check compares the mean and analytic rate that simulate reports
    details = {c.name: c.detail for c in report.checks}
    checks = {"pcd-rate-mc": "pcd", "pam-rate-mc": "pam-shallow", "hcm-rate-mc": "hcm"}
    for name, scheme in checks.items():
        rate = run_experiment(ExperimentSpec(config=config, scheme=scheme, trials=20, seed=0))
        assert details[name] == (
            f"mean rate {rate.mean_rate:.6g} (se {rate.stderr:.3g}) "
            f"vs analytic {rate.analytic_rate:.6g}"
        )


def test_steep_config_statuses():
    report = verify_config(load_config("configs/steep.json"), trials=40)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.all_pass
    by_name = _statuses(report)
    shallow_only = [
        "partial-sum-sandwich",
        "distinct-coverage-tail",
        "replication-threshold",
        "load-decay-positive",
        "pam-rate-mc",
        "pam-feasible-all-matched",
        "gap-ratio",
        "lower-bound-consistency",
        "hcm-dominance",
        "hcm-exact-branch",
        "hcm-chain-bound",
        "hcm-rate-mc",
    ]
    for name in shallow_only:
        assert by_name[name] == SKIPPED, name
    for name in ("knapsack-memory", "knapsack-density-prefix", "mlp-structural", "steep-envelope"):
        assert by_name[name] == PASS, name
    # d = 16 clears the floor at t0 = 0.1, so the tail checks ran
    assert by_name["unmatched-tail-mc"] == PASS
    assert by_name["pcd-rate-mc"] == PASS
    # the order value and the exact E[uncached] of the knapsack placement
    envelope = next(c for c in report.checks if c.name == "steep-envelope")
    assert envelope.detail == "order value 4, E[uncached] 10.1246"


def test_mlp_structural_matches_each_clusters_requests(monkeypatch):
    config = load_config("configs/steep.json")
    seen = []
    original = verification.mlp_match

    def recording(requests, placement, rng):
        seen.append(np.array(requests))
        return original(requests, placement, rng)

    monkeypatch.setattr(verification, "mlp_match", recording)
    assert verify_config(config, seed=4, trials=3).all_pass
    # the oracle is the dense count view, one column per cluster
    expected = [
        sample_profile(config, 4, trial).counts[:, c]
        for trial in range(3)
        for c in range(config.num_clusters)
    ]
    assert len(seen) == len(expected)
    assert all(np.array_equal(got, want) for got, want in zip(seen, expected))


def test_floor_violation_skips_simulation_checks():
    # K = 100, d = 10 is far below the floor (2*(1+t0)/alpha)*ln K = 95.4
    config = make_config(M=2.0)
    report = verify_config(config, trials=10)
    assert report.warnings  # the validator flagged the floor
    by_name = _statuses(report)
    for name in ("unmatched-tail-mc", "pcd-rate-mc", "hcm-rate-mc"):
        assert by_name[name] == SKIPPED, name
        detail = next(c.detail for c in report.checks if c.name == name)
        assert "floor" in detail
    # scalar checks are unaffected by the floor
    assert by_name["partial-sum-sandwich"] == PASS
    assert by_name["gap-ratio"] == PASS
    assert report.all_pass


def test_rejects_invalid_config():
    with pytest.raises(HardInvariantViolation):
        verify_config(make_config(rho=0.6))


def test_report_json_counts():
    report = verify_config(make_config(M=2.0), trials=10)
    payload = json.loads(report.to_json())
    assert payload["passed"] + payload["failed"] + payload["skipped"] == len(CHECK_NAMES)
    assert payload["failed"] == len(report.failed)
    assert [c["name"] for c in payload["checks"]] == CHECK_NAMES
    statuses = {PASS, FAIL, SKIPPED}
    assert all(c["status"] in statuses for c in payload["checks"])
