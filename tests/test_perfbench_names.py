"""The names the benchmark's tracer wraps must exist where it wraps them.

perfbench/spans.py times each layer by replacing module attributes such as
montecarlo.pcd_simulate with wrappers, so the Monte Carlo loop has to keep
calling each scheme's callees through montecarlo's own names.
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

from conftest import make_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

TRIAL_CALLEES = {
    PCD_SCHEME: "pcd_simulate",
    PAM_SHALLOW_SCHEME: "pam_shallow_serve",
    PAM_STEEP_SCHEME: "pam_steep_serve",
    HCM_SCHEME: "hcm_simulate",
}


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
