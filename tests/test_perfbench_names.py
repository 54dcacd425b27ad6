"""The benchmark's entry points into the program must keep working.

perfbench/spans.py times each layer by replacing module attributes such as
montecarlo.pcd_simulate with wrappers, so the Monte Carlo loop has to keep
calling each scheme's callees through montecarlo's own names, and pass what
the wrappers read.  perfbench/setup_probe.py calls the placement and plan
builders directly, so their signatures are part of the same contract.  The
wrappers' observers read fields of the results, so those fields are too.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cachematch import cli, montecarlo, pam_steep, verification
from cachematch.config import config_payload
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
)
from cachematch.popularity import build_catalog
from cachematch.traffic import MATCHING_ROLE, sample_profile, stream

from conftest import count_calls, make_config
from oracles import join_profiles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TRIAL_CALLEES = {
    PCD_SCHEME: "pcd_simulate",
    PAM_SHALLOW_SCHEME: "pam_shallow_serve",
    PAM_STEEP_SCHEME: "pam_steep_serve",
    HCM_SCHEME: "hcm_simulate",
}


def _load(name):
    """perfbench/<name>.py as a module; perfbench/ must be on sys.path for its
    own imports."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _load("spans")
    assert spans.WRAPS
    for module_name, attr, *_ in spans.WRAPS:
        module = importlib.import_module(f"cachematch.{module_name}")
        assert callable(getattr(module, attr, None)), f"cachematch.{module_name}.{attr}"


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_trials_call_through_montecarlo_names(monkeypatch, cold_memo, scheme):
    calls = count_calls(monkeypatch, montecarlo, ["sample_profile", TRIAL_CALLEES[scheme]])
    beta = 2.0 if scheme == PAM_STEEP_SCHEME else 0.0
    config = make_config(K=20, d=10, N=20, M=2.0, beta=beta)
    spec = ExperimentSpec(config=config, scheme=scheme, trials=6, seed=3)
    # one profile call and one scheme call per block: the four trials make
    # one block, or two when a block may span only two trials' caches
    assert montecarlo.run_trials(spec, 2, 4).shape == (4, 3)
    assert calls == {"sample_profile": 1, TRIAL_CALLEES[scheme]: 1}
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", 2 * config.K)
    assert montecarlo.run_trials(spec, 2, 4).shape == (4, 3)
    assert calls == {"sample_profile": 3, TRIAL_CALLEES[scheme]: 3}


# the spans of each scheme's placement or plan, recorded by the wrappers on
# montecarlo's names
PREPARE_SPANS = {
    PAM_SHALLOW_SCHEME: ["pam_shallow.placement"],
    PAM_STEEP_SCHEME: ["pam_steep.knapsack", "pam_steep.solve"],
    HCM_SCHEME: ["hcm.plan"],
}


@pytest.mark.parametrize("scheme", list(PREPARE_SPANS))
def test_traced_runs_record_prepare_on_a_memo_miss_only(cold_prepared, scheme):
    spans = _load("spans")
    watched = {name for names in PREPARE_SPANS.values() for name in names}
    beta = 2.0 if scheme == PAM_STEEP_SCHEME else 0.0
    spec = ExperimentSpec(config=make_config(K=20, d=10, N=20, M=2.0, beta=beta), scheme=scheme,
                          trials=3, seed=3)
    recorded = []
    for _ in range(2):  # on a cold memo, then on a warm one
        with spans.Tracer().installed() as tracer:
            montecarlo.run_experiment(spec)
        recorded.append(sorted((name, tracer.spans[parent][0]) for name, _, _, _, parent in tracer.spans
                               if name in watched))
    assert recorded == [[(name, "montecarlo.run_trials") for name in PREPARE_SPANS[scheme]], []]


def test_shallow_serve_gives_what_the_serve_observer_sums():
    # spans._observe_serve adds evicted_requests and int(all_feasible) per call
    spans = _load("spans")
    config = make_config(K=20, d=10, N=20, M=2.0)
    placement = montecarlo.proportional_placement(config, build_catalog(config.N, config.beta))
    profiles = [sample_profile(config, 3, trial) for trial in range(40)]
    block = montecarlo.pam_shallow_serve(join_profiles(profiles), placement, config)
    feasible = next(out for out in (montecarlo.pam_shallow_serve(p, placement, config) for p in profiles)
                    if out.all_feasible)
    assert type(block.evicted_requests) is int and type(block.all_feasible) is bool
    tracer = spans.Tracer()
    for out in (block, feasible):
        spans._observe_serve(tracer, (), {}, out)
    assert tracer.counters["pam_shallow.evicted_requests"] == block.evicted_requests > 0
    assert tracer.counters["pam_shallow.feasible_trials"] == 1


def test_traced_sample_profile_spans_carry_the_trial_ids(monkeypatch, cold_memo):
    # spans._trial_arg reads the trial from the keyword or the fourth
    # argument; run_trials passes a block's first trial by keyword
    spans = _load("spans")
    config = make_config(K=20, d=10, N=20, M=2.0)
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", 2 * config.K)
    spec = ExperimentSpec(config=config, scheme=PCD_SCHEME, trials=6, seed=3)
    with spans.Tracer().installed() as tracer:
        montecarlo.run_trials(spec, 2, 4)
    trials = [trial for name, trial, *_ in tracer.spans if name == "traffic.sample_profile"]
    assert trials == [2, 4]


def test_traced_verify_records_the_structural_draws(monkeypatch, cold_memo):
    # mlp-structural draws its blocks through montecarlo.sample_profile, so a
    # traced verify_config records them, each span carrying its first trial;
    # verify_config is called unwrapped here, so those spans have no parent
    spans = _load("spans")
    config = make_config(K=20, d=10, N=20, M=2.0, beta=2.0)
    monkeypatch.setattr(montecarlo, "BLOCK_CACHES", 2 * config.K)
    with spans.Tracer().installed() as tracer:
        report = verification.verify_config(config, seed=3, trials=5)
    assert next(c for c in report.checks if c.name == "mlp-structural").status == "PASS"
    trials = [trial for name, trial, _, _, parent in tracer.spans
              if name == "traffic.sample_profile" and parent == -1]
    assert trials == [0, 2, 4]


def test_setup_probe_builds_every_scheme(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe = _load("setup_probe")
    assert probe.PREPARE
    for scheme, prepare in probe.PREPARE.items():
        beta = 2.0 if scheme == PAM_STEEP_SCHEME else 0.0
        config = make_config(K=20, d=10, N=20, M=2.0, beta=beta)
        SCHEMES[scheme].check(config)
        assert prepare(config, build_catalog(config.N, config.beta)) is not None


def test_observers_read_what_the_program_returns(tmp_path, cold_prepared):
    spans = _load("spans")
    shallow = make_config(K=20, d=10, N=20, M=2.0)  # above the replication threshold
    steep = make_config(K=20, d=10, N=20, M=2.0, beta=2.0)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_payload(shallow)), encoding="utf-8")
    with spans.Tracer().installed() as tracer:
        for scheme in SCHEMES:
            config = steep if scheme == PAM_STEEP_SCHEME else shallow
            montecarlo.run_experiment(ExperimentSpec(config=config, scheme=scheme, trials=3, seed=3))
        placement = pam_steep.solve_fractional_knapsack(
            pam_steep.build_knapsack(steep, build_catalog(steep.N, steep.beta)))
        pam_steep.mlp_match([1] * steep.N, placement, stream(3, 0, MATCHING_ROLE))
        assert cli.main(["verify-bounds", str(config_path), "--trials", "5"]) == 0
        assert cli.main(["regime-map", "--beta", "2.0", "--resolution", "3",
                         "--out", str(tmp_path / "map.csv")]) == 0
    metrics = spans.layer_metrics(tracer, passes=1)
    for name in ("hcm.chi", "traffic.requests_per_trial", "verification.checks_passed"):
        assert metrics[name][0] > 0, name
