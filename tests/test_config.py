import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cachematch.config import (
    CONFIG_KEYS,
    PolyKPoint,
    SystemConfig,
    config_payload,
    load_config,
    validate,
)
from cachematch.errors import DomainError, HardInvariantViolation

from conftest import make_config

VALID_PAYLOAD = dict(k=600, d=60, n=600, m=2.0, rho=0.1, beta=0.0, t0=1.0)


def test_properties(base_config):
    assert base_config.num_clusters == 10
    assert base_config.alpha == pytest.approx(0.1931471805599453, rel=1e-14)
    assert base_config.rho * base_config.K == pytest.approx(25.0)
    # floor = 2*(1+t0)/alpha * log K
    assert base_config.cluster_floor == pytest.approx(95.3709, rel=1e-4)
    assert not base_config.meets_cluster_floor


def test_validate_clean():
    config = SystemConfig(K=600, d=60, N=600, M=2.0, rho=0.1, beta=0.0, t0=1.0)
    assert validate(config) == ()


def test_validate_floor_warning(base_config):
    assert validate(base_config) == (
        "d = 10 is below the proof floor 95.37; analytic tail bounds are "
        "outside their proven regime",
    )


def test_validate_names_every_failed_invariant_in_order():
    config = make_config(K=100.0, d=7, N=50, M=-1.0, rho=0.6, beta=1.0, t0=0.0)
    with pytest.raises(HardInvariantViolation) as err:
        validate(config)
    names = (
        "integer_sizes",
        "positive_sizes",
        "memory_nonnegative",
        "cluster_divides",
        "catalog_covers_caches",
        "intensity_range",
        "zipf_exponent",
        "tail_slack",
    )
    assert err.value.failed == names
    assert str(err.value) == "hard invariant(s) failed: " + ", ".join(names)


@pytest.mark.parametrize(
    "overrides, failing",
    [
        (dict(rho=0.6), "intensity_range"),
        (dict(rho=0.0), "intensity_range"),
        (dict(beta=1.0), "zipf_exponent"),
        (dict(beta=-0.5), "zipf_exponent"),
        (dict(t0=0.0), "tail_slack"),
        (dict(d=7), "cluster_divides"),
        (dict(N=50), "catalog_covers_caches"),
        (dict(M=-1.0), "memory_nonnegative"),
        (dict(K=0), "positive_sizes"),
        (dict(rho=0.4999999999999999), "intensity_range"),  # alpha rounds to 0
        (dict(beta=math.inf), "zipf_exponent"),
        (dict(t0=math.inf), "tail_slack"),
        (dict(t0=math.nan), "tail_slack"),
        (dict(M=math.inf), "memory_nonnegative"),
        (dict(M=math.nan), "memory_nonnegative"),
    ],
)
def test_validate_hard_failures(overrides, failing):
    config = make_config(**overrides)
    with pytest.raises(HardInvariantViolation) as err:
        validate(config)
    assert failing in err.value.failed


def test_validate_noninteger_sizes():
    config = make_config(K=100.0)
    with pytest.raises(HardInvariantViolation) as err:
        validate(config)
    assert "integer_sizes" in err.value.failed


def test_load_config_round_trip(tmp_path):
    payload = dict(k=600, d=60, n=600, m=2.0, rho=0.1, beta=0.0, t0=1.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = load_config(str(path))
    assert config == SystemConfig(K=600, d=60, N=600, M=2.0, rho=0.1, beta=0.0, t0=1.0)


def test_load_shipped_configs():
    default = load_config("configs/default.json")
    validate(default)  # raises on a broken invariant
    steep = load_config("configs/steep.json")
    validate(steep)
    assert steep.beta > 1


@pytest.mark.parametrize(
    "payload",
    [
        {"k": 10},  # missing keys
        dict(k=10, d=2, n=10, m=1, rho=0.2, beta=0, t0=1, extra=5),  # unknown key
        [1, 2, 3],  # not an object
        {**VALID_PAYLOAD, "k": 600.9},  # fractional size
        {**VALID_PAYLOAD, "k": True, "d": 1},  # bool is not a size
        {**VALID_PAYLOAD, "k": "600"},  # nor is a string
        {**VALID_PAYLOAD, "n": float("inf")},
        {**VALID_PAYLOAD, "m": "2"},
        {**VALID_PAYLOAD, "rho": None},
        {**VALID_PAYLOAD, "beta": False},
        {**VALID_PAYLOAD, "t0": [1.0]},
    ],
)
def test_load_config_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(HardInvariantViolation):
        load_config(str(path))


@st.composite
def valid_payloads(draw):
    d = draw(st.integers(1, 64))
    k = d * draw(st.integers(1, 64))
    return dict(
        k=k,
        d=d,
        n=k + draw(st.integers(0, 1000)),
        m=draw(st.one_of(st.integers(0, 10**6), st.floats(0, 1e6))),
        rho=draw(st.floats(0, 0.49, exclude_min=True)),  # alpha rounds to 0 near 1/2
        beta=draw(st.floats(0, 10).filter(lambda b: b != 1.0)),
        t0=draw(st.floats(0, 100, exclude_min=True)),
    )


@settings(max_examples=200)
@given(valid_payloads(), st.booleans())
def test_load_config_round_trip_property(tmp_path_factory, payload, float_sizes):
    written = dict(payload)
    if float_sizes:  # an integral float such as 600.0 is a size too
        written.update((key, float(payload[key])) for key in ("k", "d", "n"))
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    path.write_text(json.dumps(written))
    config = load_config(str(path))
    assert config == SystemConfig(
        K=payload["k"],
        d=payload["d"],
        N=payload["n"],
        M=float(payload["m"]),
        rho=payload["rho"],
        beta=payload["beta"],
        t0=payload["t0"],
    )
    assert all(type(size) is int for size in (config.K, config.d, config.N))
    validate(config)  # raises on a broken invariant
    # and back: the object written for a config loads as the same config
    path.write_text(json.dumps(config_payload(config)))
    assert load_config(str(path)) == config
    canonical = {**payload, "m": float(payload["m"])}  # sizes int, the rest float
    assert json.dumps(config_payload(config)) == json.dumps(canonical)


def test_config_keys_frozen():
    assert CONFIG_KEYS == ("k", "d", "n", "m", "rho", "beta", "t0")


def test_polyk_point():
    point = PolyKPoint(nu=1.0, delta=0.5, mu=0.3, beta=0.5)
    assert point.mu == 0.3
    with pytest.raises(ValueError):
        PolyKPoint(nu=0.9, delta=0.5, mu=0.3, beta=0.5)
    with pytest.raises(ValueError):
        PolyKPoint(nu=1.0, delta=0.0, mu=0.3, beta=0.5)
    with pytest.raises(ValueError):
        PolyKPoint(nu=1.0, delta=1.5, mu=0.3, beta=0.5)
    with pytest.raises(ValueError):
        PolyKPoint(nu=1.0, delta=0.5, mu=-0.1, beta=0.5)
    with pytest.raises(ValueError):
        PolyKPoint(nu=2.0, delta=0.5, mu=1.2, beta=0.5)
    with pytest.raises(ValueError):
        PolyKPoint(nu=1.0, delta=0.5, mu=0.3, beta=-1.0)


@pytest.mark.parametrize(
    "fields",
    [
        dict(nu=math.nan), dict(nu=math.inf), dict(nu=0.5),
        dict(beta=math.nan), dict(beta=math.inf), dict(beta=-0.5),
    ],
)
def test_polyk_point_rejects_bad_exponents_as_domain_errors(fields):
    with pytest.raises(DomainError):
        PolyKPoint(**{**dict(nu=1.0, delta=0.5, mu=0.3, beta=0.5), **fields})
