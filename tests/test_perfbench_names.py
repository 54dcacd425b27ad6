"""The benchmark's entry points into the program must keep working.

perfbench/spans.py times each layer by replacing module attributes such as
montecarlo.pcd_simulate with wrappers, so the Monte Carlo loop has to keep
calling each scheme's callees through montecarlo's own names, and pass what
the wrappers read.  perfbench/setup_probe.py calls the placement and plan
builders directly, so their signatures are part of the same contract.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cachematch import montecarlo
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
)
from cachematch.popularity import build_catalog

from conftest import make_config

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
def test_trials_call_through_montecarlo_names(monkeypatch, scheme):
    calls = {"sample_profile": 0, TRIAL_CALLEES[scheme]: 0}
    for name in calls:
        original = getattr(montecarlo, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counting)
    beta = 2.0 if scheme == PAM_STEEP_SCHEME else 0.0
    config = make_config(K=20, d=10, N=20, M=2.0, beta=beta)
    spec = ExperimentSpec(config=config, scheme=scheme, trials=6, seed=3)
    assert montecarlo.run_trials(spec, 2, 4).shape == (4, 3)
    assert calls == {"sample_profile": 4, TRIAL_CALLEES[scheme]: 4}


def test_traced_sample_profile_spans_carry_the_trial_ids():
    # spans._trial_arg reads the trial from the keyword or the fourth argument
    spans = _load("spans")
    spec = ExperimentSpec(config=make_config(K=20, d=10, N=20, M=2.0), scheme=PCD_SCHEME,
                          trials=6, seed=3)
    with spans.Tracer().installed() as tracer:
        montecarlo.run_trials(spec, 2, 4)
    trials = [trial for name, trial, *_ in tracer.spans if name == "traffic.sample_profile"]
    assert trials == [2, 3, 4, 5]


def test_setup_probe_builds_every_scheme(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe = _load("setup_probe")
    assert probe.PREPARE
    for scheme, prepare in probe.PREPARE.items():
        beta = 2.0 if scheme == PAM_STEEP_SCHEME else 0.0
        config = make_config(K=20, d=10, N=20, M=2.0, beta=beta)
        SCHEMES[scheme].check(config)
        assert prepare(config, build_catalog(config.N, config.beta)) is not None
