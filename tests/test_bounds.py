import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachematch.bounds import (
    DISTINCT_FRACTION,
    cutset_bounds,
    distinct_files_tail_bound,
    gap_constant,
    optimality_gap,
    shallow_lower_bound,
)
from cachematch.errors import DomainError
from cachematch.hcm import hcm_rate
from cachematch.mathkit import bernoulli_kl
from cachematch.pcd import pcd_rate_shallow

from conftest import make_config
from oracles import shallow_lower_bound_small_memory


def test_distinct_fraction_frozen():
    assert DISTINCT_FRACTION == pytest.approx(0.8160602794142788, rel=1e-15)


def test_cutset_frozen_example():
    # zero memory, one cluster: (1/4) * 0.4 * 10 * (1 - e^(-1)/2)
    config = make_config(K=100, d=10, N=100, M=0.0, rho=0.4)
    assert cutset_bounds(config)[0] == pytest.approx(
        0.8160602794142788, rel=1e-12
    )


def test_cutset_memory_slack():
    config = make_config(M=2.0)  # K=100, d=10, N=100, rho=0.25
    want = 0.25 * 0.25 * 10 * (DISTINCT_FRACTION - 10 * 2.0 / 100)
    per_s = cutset_bounds(config)
    assert per_s[0] == pytest.approx(want, rel=1e-12)
    # large s drives the slack negative; the bound clamps at zero
    assert per_s[9] == 0.0


def test_cutset_domain():
    # the cut is taken over s = 1..K/d clusters, and only for N >= 10
    assert len(cutset_bounds(make_config())) == 10
    assert len(cutset_bounds(make_config(d=50))) == 2
    with pytest.raises(DomainError):
        cutset_bounds(make_config(K=8, d=4, N=8))


def test_closed_form_values():
    config = make_config(M=2.0)
    a = DISTINCT_FRACTION
    want = (0.25 * a / 48.0) * (a * 50.0 - 10.0)
    assert shallow_lower_bound(config) == pytest.approx(want, rel=1e-12)
    # min binds at K when memory is tiny
    tiny = make_config(M=0.001)
    assert shallow_lower_bound(tiny) == pytest.approx(
        (0.25 * a / 48.0) * 100.0, rel=1e-12
    )
    # inner term negative: bound degrades to zero, never negative
    assert shallow_lower_bound(make_config(M=100.0)) == 0.0
    assert shallow_lower_bound(make_config(M=0.0)) == pytest.approx(
        (0.25 * a / 48.0) * 100.0, rel=1e-12
    )


def test_small_memory_frozen_example():
    config = make_config(K=100, d=10, N=1000, M=10.0, rho=0.25, beta=0.5)
    assert shallow_lower_bound_small_memory(config) == pytest.approx(
        0.021678202462165067, rel=1e-12
    )


def test_small_memory_regime_gate():
    # M >= a*N/(2*d) is outside the proved regime
    config = make_config(M=10.0)  # a*N/(2d) = 4.08 < 10
    with pytest.raises(DomainError):
        shallow_lower_bound_small_memory(config)
    zero = make_config(M=0.0)
    a = DISTINCT_FRACTION
    assert shallow_lower_bound_small_memory(zero) == pytest.approx(
        (a * a * 0.25 / 96.0) * 25.0, rel=1e-12
    )


def test_gap_constant_frozen():
    assert gap_constant(make_config()) == pytest.approx(576.6160742255374, rel=1e-12)
    with pytest.raises(DomainError):
        gap_constant(make_config(beta=1.5))


def test_optimality_gap_within_constant():
    config = make_config(M=2.0)  # M < a*N/(2*d) = 4.08
    gap = optimality_gap(config)
    assert 1.0 <= gap <= gap_constant(config)
    with pytest.raises(DomainError):
        optimality_gap(make_config(M=10.0))


def test_distinct_tail_bound():
    want = math.exp(-100 * bernoulli_kl(math.exp(-1.0) + 0.1, math.exp(-1.0)))
    assert distinct_files_tail_bound(100, 0.1) == pytest.approx(want, rel=1e-12)
    assert distinct_files_tail_bound(100, 0.1) < 1.0
    with pytest.raises(DomainError):
        distinct_files_tail_bound(100, 0.0)
    with pytest.raises(DomainError):
        distinct_files_tail_bound(100, 0.7)  # e^(-1) + eps >= 1


@given(n=st.integers(min_value=10, max_value=10_000), eps=st.floats(0.01, 0.6))
@settings(max_examples=100, deadline=None)
def test_distinct_tail_decreases_in_n(n, eps):
    assert distinct_files_tail_bound(2 * n, eps) <= distinct_files_tail_bound(n, eps)


def test_report_structure():
    config = make_config(M=2.0, beta=0.5)
    per_s = cutset_bounds(config)
    assert len(per_s) == config.num_clusters
    # shallow Zipf reduces to uniform at intensity (1 - beta) * rho
    half = make_config(M=2.0, rho=0.125)
    assert per_s == pytest.approx(cutset_bounds(half), rel=1e-12)


def test_report_domain():
    with pytest.raises(DomainError):
        cutset_bounds(make_config(beta=2.0))
    with pytest.raises(DomainError):
        cutset_bounds(make_config(K=8, d=4, N=8))


@given(
    mem=st.floats(0.0, 4.0),
    rho=st.floats(0.05, 0.45),
    beta=st.floats(0.0, 0.9),
)
@settings(max_examples=150, deadline=None)
def test_bound_below_scheme_rates(mem, rho, beta):
    # any valid lower bound sits under every achievable analytic rate
    config = make_config(M=mem, rho=rho, beta=beta)
    bound = shallow_lower_bound(config)
    assert bound <= pcd_rate_shallow(config) + 1e-12
    assert bound <= hcm_rate(config, config.t0) + 1e-12


def test_cutset_linear_in_s_at_zero_memory():
    config = make_config(M=0.0, rho=0.4)
    per_s = cutset_bounds(config)
    values = [per_s[s - 1] for s in (1, 2, 4)]
    assert values[1] == pytest.approx(2 * values[0], rel=1e-12)
    assert values[2] == pytest.approx(4 * values[0], rel=1e-12)
