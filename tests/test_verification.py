import dataclasses
import json

import numpy as np
import pytest

from cachematch import montecarlo, verification
from cachematch.config import load_config
from cachematch.errors import HardInvariantViolation
from cachematch.montecarlo import ExperimentSpec, run_experiment
from cachematch.pam_shallow import pam_shallow_serve, proportional_placement
from cachematch.pam_steep import build_knapsack, mlp_match
from cachematch.popularity import build_catalog
from cachematch.traffic import MATCHING_ROLE, sample_profile, stream
from cachematch.verification import FAIL, PASS, SKIPPED, verify_config

from conftest import count_calls, make_config

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


@pytest.mark.parametrize("path, changes, callees", [
    ("configs/default.json", {"M": 10.0}, ("proportional_placement", "build_color_plan")),
    ("configs/steep.json", {}, ("build_knapsack", "solve_fractional_knapsack")),
])
def test_checks_and_their_runs_share_one_prepared_state(monkeypatch, cold_prepared, path, changes, callees):
    # the placement and plan checks read the state their Monte Carlo runs
    # prepared, through the montecarlo names, once per config
    calls = count_calls(monkeypatch, montecarlo, callees)
    config = dataclasses.replace(load_config(path), **changes)
    report = verify_config(config, trials=20)
    assert report.all_pass
    assert calls == dict.fromkeys(callees, 1)


def test_pam_feasible_all_matched_checks_each_feasible_trial(monkeypatch):
    # a matcher one request short fails every feasible trial, and only those
    config = dataclasses.replace(load_config("configs/default.json"), M=10.0)
    monkeypatch.setattr(verification, "matched_requests",
                        lambda profile, placement, config: profile.total_users - 1)
    check = next(c for c in verify_config(config, trials=30).checks if c.name == "pam-feasible-all-matched")
    placement = proportional_placement(config, build_catalog(config.N, config.beta))
    feasible = sum(pam_shallow_serve(sample_profile(config, 0, t), placement, config).all_feasible
                   for t in range(30))
    assert 0 < feasible < 30
    assert (check.status, check.detail) == (FAIL, f"{feasible} feasible trials with unmatched users")


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
    original = verification.cluster_matchings

    def recording(block, placement, rngs):
        for outcome in original(block, placement, rngs):
            seen.append((outcome, placement))
            yield outcome

    monkeypatch.setattr(verification, "cluster_matchings", recording)
    assert verify_config(config, seed=4, trials=3).all_pass
    # the oracle is mlp_match on the dense count view, one column per cluster,
    # each trial's clusters in order on that trial's matching stream
    expected = []
    for trial in range(3):
        rng = stream(4, trial, MATCHING_ROLE)
        columns = sample_profile(config, 4, trial).counts.T
        expected += [mlp_match(column, seen[0][1], rng) for column in columns]
    assert [outcome for outcome, _ in seen] == expected
    assert sum(len(o.matched) for o in expected) > 0


@pytest.mark.parametrize("path, changes, callee", [
    ("configs/default.json", {"M": 10.0}, "pam_shallow_serve"),  # above the replication threshold
    ("configs/steep.json", {}, "cluster_matchings"),
])
def test_structural_checks_obey_the_block_cap(monkeypatch, cold_memo, path, changes, callee):
    # pam-feasible-all-matched and mlp-structural walk montecarlo's block
    # loop: a block they score spans at most BLOCK_CACHES caches, and the
    # report is the same at any cap
    config = dataclasses.replace(load_config(path), **changes)
    original = getattr(verification, callee)
    spans = []

    def recording(block, *args):
        spans.append(block.trials)
        return original(block, *args)

    monkeypatch.setattr(verification, callee, recording)
    default = verify_config(config, seed=2, trials=30).to_json()
    assert max(spans) > 2  # the default cap lets a block span more trials
    spans.clear()
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", 2 * config.K)
    assert verify_config(config, seed=2, trials=30).to_json() == default
    assert spans and max(spans) <= 2


@pytest.mark.parametrize("fault, detail", [
    ("reuse", "trial 1 cluster 2: a cache matched twice"),
    ("foreign", "trial 1: matched cache lacks the file"),
    ("lost", "trial 1: request conservation broken"),
])
def test_mlp_structural_fails_a_bad_walk(monkeypatch, fault, detail):
    config = load_config("configs/steep.json")
    original = verification.cluster_matchings

    def faulty(block, placement, rngs):
        for i, outcome in enumerate(original(block, placement, rngs)):
            if i == config.num_clusters + 2:  # trial 1, cluster 2
                n = next(n for n, holders in enumerate(placement.holders) if len(holders) == 1)
                k = placement.holders[n][0]
                other = next(c for c in range(config.d) if c != k)
                bad = {"reuse": ((n, k), (n, k)), "foreign": ((n, other),), "lost": ()}[fault]
                outcome = dataclasses.replace(outcome, matched=bad, unmatched_requests=0)
            yield outcome

    monkeypatch.setattr(verification, "cluster_matchings", faulty)
    check = next(c for c in verify_config(config, seed=4, trials=3).checks if c.name == "mlp-structural")
    assert (check.status, check.detail) == (FAIL, detail)


@pytest.mark.parametrize("N, d", [(256, 16), (4096, 64), (1 << 16, 256)])
def test_density_prefix_order_is_the_sorted_key_order(N, d):
    # knapsack-density-prefix walks files by a stable argsort of -density:
    # the order of sorted(range(N), key=lambda n: (-density[n], n))
    config = make_config(K=N, d=d, N=N, M=4.0, rho=0.1, beta=2.0, t0=0.1)
    instance = build_knapsack(config, build_catalog(N, config.beta))
    density = instance.values / instance.weights
    tied = np.repeat(density[::8], 8)  # runs of equal density go by file id
    for values in (density, tied):
        expected = sorted(range(N), key=lambda n: (-values[n], n))
        assert np.argsort(-values, kind="stable").tolist() == expected


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


# --- known wrong results: strict xfails until their ROADMAP items land ---------

# K = N = 2^16 at steep popularity, where the slack in steep pcd's coded term
# no longer hides the matched requests outside its pool
STEEP_2_16 = dict(K=1 << 16, d=256, N=1 << 16, M=16.0, rho=0.25, beta=2.0, t0=0.1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: at M < 1 pcd_simulate unicasts every matched user; "
                          "25.7425 against the formula's 16")
def test_steep_pcd_below_unit_memory_meets_its_formula():
    config = dataclasses.replace(load_config("configs/steep.json"), M=0.5)
    assert _statuses(verify_config(config, seed=1, trials=400))["pcd-rate-mc"] == PASS


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: rate_steep_formula has no term for matched requests "
                          "outside the pool; 67.3213 against 63.1316")
def test_steep_pcd_at_large_k_meets_its_formula():
    report = verify_config(make_config(**STEEP_2_16), seed=1, trials=40)
    assert _statuses(report)["pcd-rate-mc"] == PASS


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 4 and 12: pam-steep's order envelope fails on correct "
                          "code; 38.425 against 16")
def test_pam_steep_at_large_k_meets_its_envelope():
    report = run_experiment(ExperimentSpec(make_config(**STEEP_2_16), "pam-steep", 40, 1))
    assert report.bound_satisfied
