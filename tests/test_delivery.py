from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch import delivery, montecarlo, pcd
from cachematch.delivery import coded_delivery_rate
from cachematch.hcm import build_color_plan
from cachematch.pcd import coded_pool_size
from cachematch.popularity import build_catalog
from cachematch.traffic import sample_profile

from conftest import count_calls, make_config
from oracles import oracle_row


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


# --- the per-key rate tables ---------------------------------------------------


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty rate tables in place of the process's ones for this test."""
    tables = {}
    monkeypatch.setattr(delivery, "_rate_tables", tables)
    return tables


def _table_keys(config):
    """The (caches, memory, files) keys pcd and hcm score `config` with."""
    keys = {(config.K, config.M, coded_pool_size(config))}
    if config.beta < 1:
        plan = build_color_plan(config, build_catalog(config.N, config.beta), config.t0)
        keys |= {(m_x * config.num_clusters, config.M, size)
                 for m_x, size in zip(plan.caches_per_color.tolist(), plan.class_sizes.tolist()) if m_x}
    return keys


TABLE_CONFIGS = [
    # pcd on the whole catalog and hcm with chi = 2, at two memories of one (K, N)
    make_config(K=400, d=100, N=400, M=4.0, rho=0.1, t0=0.2),
    make_config(K=400, d=100, N=400, M=6.5, rho=0.1, t0=0.2),
    # hcm with chi = 5, colors of 80 files
    make_config(K=400, d=200, N=400, M=2.0, rho=0.1, t0=0.2),
    # steep pcd: a pool of floor((K*M)^(1/beta)) = 45 of the 256 files
    make_config(K=256, d=16, N=256, M=8.0, rho=0.4, beta=2.0, t0=0.1),
    make_config(K=256, d=16, N=256, M=12.0, rho=0.4, beta=2.0, t0=0.1),
]


def test_rate_tables_hold_the_coded_delivery_rate(cold_tables):
    keys = set()
    for config in TABLE_CONFIGS:
        block = sample_profile(config, 3, 0, 30)
        schemes = ["pcd"] + (["hcm"] if config.beta < 1 else [])
        for scheme in schemes:
            state = montecarlo.prepared(scheme, config, config.t0)
            rows = montecarlo.SCHEMES[scheme].trials(block, state, 3, range(30))
            # each trial's row is its own accounting, memory included
            for trial in range(30):
                want = oracle_row(scheme, block.between(trial, trial + 1), config, state, 3, trial)
                assert tuple(rows[trial].tolist()) == want
        keys |= _table_keys(config)
    assert set(cold_tables) == keys
    assert any(pool < 256 for _, _, pool in keys)  # steep pcd's pool
    for (caches, memory, files), table in cold_tables.items():
        asked = np.flatnonzero(~np.isnan(table))
        assert asked.size and table.size == asked[-1] + 1  # grown to the largest count asked
        for n in asked.tolist():
            assert table[n] == coded_delivery_rate(caches, memory, files, n)


def test_a_table_fills_each_count_once_through_the_callers_name(cold_tables, monkeypatch):
    config = TABLE_CONFIGS[0]
    block = sample_profile(config, 4, 0, 40)
    calls = count_calls(monkeypatch, pcd, ["coded_delivery_rate"])
    first = pcd.pcd_simulate(block)
    (table,) = cold_tables.values()
    assert calls["coded_delivery_rate"] == np.count_nonzero(~np.isnan(table)) > 1
    calls.clear()
    assert np.array_equal(pcd.pcd_simulate(block), first)
    assert pcd.pcd_simulate(block.between(3, 9)).tolist() == first[3:9].tolist()
    assert not calls  # every count held


def test_rate_tables_hold_at_most_their_bound(cold_tables):
    calls = []

    def rate(caches, memory, files, n):
        calls.append((caches, memory, files, n))
        return coded_delivery_rate(caches, memory, files, n)

    counts = np.array([3, 0, 5, 3])
    for i in range(delivery.RATE_TABLE_KEYS + 10):
        got = delivery.coded_rates(counts, 8, 1.0 + i, 16 + i, rate)
        assert got.tolist() == [coded_delivery_rate(8, 1.0 + i, 16 + i, n) for n in counts.tolist()]
        assert len(cold_tables) == min(i + 1, delivery.RATE_TABLE_KEYS)
    # the oldest keys went first; a dropped key is filled anew, a held one is not
    assert (8, 10.0, 25) not in cold_tables and (8, 11.0, 26) in cold_tables
    calls.clear()
    delivery.coded_rates(counts, 8, 11.0, 26, rate)
    assert not calls
    delivery.coded_rates(counts, 8, 1.0, 16, rate)
    assert sorted(n for *_, n in calls) == [0, 3, 5]
    assert len(cold_tables) == delivery.RATE_TABLE_KEYS
