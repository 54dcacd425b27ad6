"""Pinned report digests: a speed-up must not change a single byte.

Each case hashes run_experiment(...).to_json(config) at seed 5.  The digests
were recorded before pam-steep serve moved to the sparse run path, so they
also pin that the sparse path makes the same draws as the dense one did.  The
pam-steep steep.json digest was re-recorded at SAMPLER_VERSION 3, when the
matcher moved to one batched uniform draw per trial; the steep-mlp 4-trial
report came out byte-identical under that change and kept its digest.

The report counts almost never depend on which cache a request takes, so
the matched (file, cache) pairs of mlp_match are pinned separately, cluster
by cluster on one traffic.MATCHING_ROLE stream per trial: the same draws
pam_steep_serve makes.

The rate-curve memory sweeps are pinned as whole CSV files, serial and on two
workers; their digests were recorded before profiles were reused across
schemes and rows.  The verify-bounds JSON reports are pinned on both shipped
configs and on the replicated-shallow shape, where pam-rate-mc runs; their
digests were recorded before VerificationReport.to_json built its payload
from the dataclass fields.  The regime-map CSVs are pinned at three
(beta, nu, resolution) points; their digests were recorded while the
classifier still ran on fractions.Fraction, before it moved to
cross-multiplied integer ratios.

The sampler itself is pinned on the raw bytes of run_trials' profiles, each
trial's offsets then its files, for 64 pcd trials at the steep-mlp shape and
on configs/default.json; both digests were recorded before profiles were
drawn a block of trials at a time, when each trial was drawn on its own.

A digest may change only together with a declared SAMPLER_VERSION or draw
version (traffic.MATCHING_ROLE stream) bump, recorded in CHANGES.md.  Any
other change to a digest is a regression.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from cachematch import montecarlo
from cachematch.cli import main
from cachematch.config import SystemConfig, config_payload, load_config
from cachematch.montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    ExperimentSpec,
    run_experiment,
    run_trials,
)
from cachematch.pam_steep import build_knapsack, mlp_match, solve_fractional_knapsack
from cachematch.popularity import build_catalog
from cachematch.traffic import MATCHING_ROLE, sample_profile, stream

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
    (STEEP, PAM_STEEP_SCHEME, 200, "2324478d1fb210e64138d6aaaf3e10a82e24f4ec23e4ad071e70788744ad2657"),
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


PROFILE_GOLDEN = [
    (STEEP_MLP, "0c85cd4cd89c64cc7105f4c9fc4ac71f098be94acd283aa3ea795a80a22bd39c"),
    (DEFAULT, "b8e17f108d373a033d2cc282d9078c3dfdf4ecad0dbefe8d48ab33c56dadad73"),
]


@pytest.mark.parametrize(
    "config, digest", PROFILE_GOLDEN,
    ids=[f"profiles-K{c.K}-beta{c.beta:g}" for c, _ in PROFILE_GOLDEN],
)
def test_sampled_profiles_digest_is_pinned(monkeypatch, cold_memo, config, digest):
    sha = hashlib.sha256()

    def hashed(*args, **kwargs):
        block = sample_profile(*args, **kwargs)
        for i in range(block.trials):  # trial by trial, as each was pinned
            profile = block.between(i, i + 1)
            sha.update(profile.offsets.tobytes())
            sha.update(profile.files.tobytes())
        return block

    monkeypatch.setattr(montecarlo, "sample_profile", hashed)
    run_trials(ExperimentSpec(config=config, scheme=PCD_SCHEME, trials=64, seed=SEED), 0, 64)
    assert sha.hexdigest() == digest


MATCHING_GOLDEN = [
    (STEEP, 10, "10716c25e5a706d1cd693ab7c181ed887f2082ec652ddd8229693bd8aa1e3573"),
    (STEEP_MLP, 4, "b1e2b9c316e5374dc0281d73598c064d43ca41985362ff622ddb57b6be8ade3f"),
]


@pytest.mark.parametrize(
    "config, trials, digest",
    MATCHING_GOLDEN,
    ids=[f"mlp-pairs-K{c.K}-M{c.M:g}-beta{c.beta:g}" for c, _, _ in MATCHING_GOLDEN],
)
def test_matched_pairs_digest_is_pinned(config, trials, digest):
    catalog = build_catalog(config.N, config.beta)
    placement = solve_fractional_knapsack(build_knapsack(config, catalog))
    pairs = []
    for trial in range(trials):
        profile = sample_profile(config, SEED, trial)
        rng = stream(SEED, trial, MATCHING_ROLE)
        for start, stop in zip(profile.offsets[:-1], profile.offsets[1:]):
            requests = np.bincount(profile.files[start:stop], minlength=config.N)
            pairs.append(mlp_match(requests, placement, rng).matched)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


SWEEP_GOLDEN = [
    ("configs/default.json", ("2", "24", "2"),
     "d0faa9e2e802f3a386e0035db529f8bd8e6c67557ee06b84d971d73887c15b31"),
    ("configs/steep.json", ("0.5", "8", "0.5"),
     "6e4605b81ace3597518abc017189ed971cb095e4d9adb5b698abe2195a72ae40"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "config, span, digest", SWEEP_GOLDEN, ids=["rate-curve-M-shallow", "rate-curve-M-steep"]
)
def test_rate_curve_sweep_digest_is_pinned(tmp_path, config, span, digest, workers):
    start, stop, step = span
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", config, "--param", "M", "--start", start, "--stop", stop,
            "--step", step, "--trials", "5", "--seed", str(SEED), "--workers", workers,
            "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the benchmark's replicated-shallow shape: above the replication threshold
REPLICATED = SystemConfig(K=1200, d=120, N=1200, M=16.0, rho=0.2, beta=0.0, t0=1.0)

VERIFY_GOLDEN = [
    (DEFAULT, "9dbc32b230d0c99876e4c791fb2433ac317fc2f04f896cb04c6d25e4ebe091a8"),
    (STEEP, "26fc1ab5de90a3de6c8eff964c086b631fbe6943896481b0347d34c0f7ff11b6"),
    (REPLICATED, "9764a7031610375c6a03dd230aa64b1cb90647e1bf93dca0368c93e7aabf017e"),
]


@pytest.mark.parametrize(
    "config, digest", VERIFY_GOLDEN,
    ids=["verify-bounds-shallow", "verify-bounds-steep", "verify-bounds-replicated"],
)
def test_verify_bounds_report_digest_is_pinned(tmp_path, config, digest):
    path, out = tmp_path / "config.json", tmp_path / "checks.json"
    path.write_text(json.dumps(config_payload(config)), encoding="utf-8")
    argv = ["verify-bounds", str(path), "--seed", str(SEED), "--trials", "60", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


REGIME_GOLDEN = [
    ("0.5", "1.0", "50", "765efc6fd60accedd4b37f2b8e77b7951c01bdf5a94e27d78b93ee13628285e7"),
    ("2.0", "1.0", "50", "30c4217d1856faa516f196366722d266f76b8928afe84d96021497204c25011f"),
    ("3.0", "1.5", "37", "37ac01291356f81dfe63dcdb593edd476a55ef4da2f811a282208a87fa2a5908"),
]


@pytest.mark.parametrize(
    "beta, nu, resolution, digest", REGIME_GOLDEN,
    ids=[f"regime-map-beta{b}-nu{n}-r{r}" for b, n, r, _ in REGIME_GOLDEN],
)
def test_regime_map_csv_digest_is_pinned(tmp_path, beta, nu, resolution, digest):
    out = tmp_path / "map.csv"
    argv = ["regime-map", "--beta", beta, "--nu", nu, "--resolution", resolution, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
