"""Pinned report digests: a speed-up must not change a single byte.

Each case hashes run_experiment(...).to_json(config) at seed 5.  The digests
were recorded before pam-steep serve moved to the sparse run path, so they
also pin that the sparse path makes the same draws as the dense one did.

A digest may change only together with a declared SAMPLER_VERSION or draw
version (traffic.MATCHING_ROLE stream) bump, recorded in CHANGES.md.  Any
other change to a digest is a regression.
"""

import dataclasses
import hashlib

import pytest

from cachematch.config import SystemConfig, load_config
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    ExperimentSpec,
    run_experiment,
)

SEED = 5
DEFAULT = load_config("configs/default.json")
STEEP = load_config("configs/steep.json")
# the benchmark's steep-mlp shape
STEEP_MLP = SystemConfig(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1)

GOLDEN = [
    (DEFAULT, PCD_SCHEME, 200, "da05b20048f571d0ae88fd91ba323ec9642a8ec0d747c4e035c0f7d475bdcb9c"),
    (DEFAULT, HCM_SCHEME, 200, "76aaaa4b34c566625dac1f4be244fea68464a3029f5f961392a9f74ea3ea6110"),
    # default.json's M = 2 is below the replication threshold 10
    (dataclasses.replace(DEFAULT, M=16.0), PAM_SHALLOW_SCHEME, 200,
     "98dafd0fd3e509e075102ae9f708921c97b6a2fa32f2abe84e25dfcdefe52e97"),
    (STEEP, PCD_SCHEME, 200, "534e4d267e0445dd56b5fa84113af3bc1cfef3d4973c4758f85797861d9af770"),
    (STEEP, PAM_STEEP_SCHEME, 200, "bc74571722267a5bf7506d89b923850e04654a8014a4b28bd1fb26f53d7df7af"),
    (STEEP_MLP, PAM_STEEP_SCHEME, 4, "4702479649c187b8757f5f0c87bfb6c2bf1cc7f76ebcce77bfba2ff25e3b4145"),
]


@pytest.mark.parametrize(
    "config, scheme, trials, digest",
    GOLDEN,
    ids=[f"{s}-K{c.K}-M{c.M:g}-beta{c.beta:g}" for c, s, _, _ in GOLDEN],
)
def test_report_digest_is_pinned(config, scheme, trials, digest):
    report = run_experiment(ExperimentSpec(config=config, scheme=scheme, trials=trials, seed=SEED))
    assert hashlib.sha256(report.to_json(config).encode()).hexdigest() == digest
