from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cachematch.delivery import _integer_rate, coded_delivery_rate


def hockey_stick_rate(num_caches, t, num_distinct):
    """Exact rational oracle: sum_{i=1..ne} C(C-i, t) / C(C, t)."""
    denom = comb(num_caches, t)
    return sum(
        Fraction(comb(num_caches - i, t), denom) for i in range(1, num_distinct + 1)
    )


def test_domain_errors():
    with pytest.raises(ValueError):
        coded_delivery_rate(0, 1.0, 4, 1)
    with pytest.raises(ValueError):
        coded_delivery_rate(4, 1.0, 0, 0)
    with pytest.raises(ValueError):
        coded_delivery_rate(4, 1.0, 4, 5)
    with pytest.raises(ValueError):
        coded_delivery_rate(4, 1.0, 4, -1)


def test_edge_values():
    assert coded_delivery_rate(8, 2.0, 16, 0) == 0.0
    # cache memory covers the whole pool: nothing to send
    assert coded_delivery_rate(10, 10.0, 10, 3) == 0.0
    # no caching: one unit per distinct file
    assert coded_delivery_rate(10, 0.0, 10, 7) == pytest.approx(7.0, rel=1e-12)


def test_all_caches_distinct_frozen():
    # full demand spread: classic (C - t)/(t + 1) at t = C*M/F
    assert coded_delivery_rate(4, 2.0, 4, 4) == pytest.approx(2.0 / 3.0, rel=1e-12)


@settings(max_examples=200)
@given(st.data())
def test_matches_hockey_stick_identity(data):
    C = data.draw(st.integers(min_value=1, max_value=14))
    t = data.draw(st.integers(min_value=0, max_value=C))
    ne = data.draw(st.integers(min_value=0, max_value=C))
    # choose F = C so memory = t lands exactly on the integer point
    got = coded_delivery_rate(C, float(t), C, ne)
    assert got == pytest.approx(float(hockey_stick_rate(C, t, ne)), rel=1e-12, abs=1e-15)


def test_memory_sharing_interpolates():
    lo = coded_delivery_rate(4, 1.0, 4, 3)
    hi = coded_delivery_rate(4, 2.0, 4, 3)
    mid = coded_delivery_rate(4, 1.5, 4, 3)
    assert mid == pytest.approx(0.5 * lo + 0.5 * hi, rel=1e-12)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_monotone_in_memory_and_demands(C, F):
    ne_max = min(C, F)
    memories = [0.25 * i for i in range(4 * F + 1)]
    for ne in range(1, ne_max + 1):
        rates = [coded_delivery_rate(C, m, F, ne) for m in memories]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    for m in (0.0, 0.5, 1.0):
        by_ne = [coded_delivery_rate(C, m, F, ne) for ne in range(0, ne_max + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(by_ne, by_ne[1:]))


def test_integer_rate_cache_is_bounded_and_exact():
    maxsize = _integer_rate.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    _integer_rate.cache_clear()
    keys = [(C, t, ne) for C in range(1, 41) for t in range(C + 1) for ne in range(C + 1)]
    assert len(keys) > maxsize  # the cache evicts while the grid is walked twice
    for _ in range(2):
        for key in keys:
            assert _integer_rate(*key) == _integer_rate.__wrapped__(*key)
    assert _integer_rate.cache_info().currsize == maxsize
