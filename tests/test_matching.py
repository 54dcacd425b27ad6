import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch.config import load_config
from cachematch.errors import DomainError
from cachematch.matching import (
    ClusterBipartiteGraph,
    deal_round_robin,
    max_matching,
)
from cachematch.pam_shallow import proportional_placement
from cachematch.pam_steep import build_knapsack, solve_fractional_knapsack
from cachematch.popularity import build_catalog

from conftest import make_config, python_deal_round_robin
from oracles import MissingCopyCount, fractional_load


def kuhn_matching_size(num_left, num_right, adjacency):
    """Independent oracle: classic augmenting-path matching."""
    match_r = [-1] * num_right

    def try_augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] == -1 or try_augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    size = 0
    for u in range(num_left):
        if try_augment(u, set()):
            size += 1
    return size


def test_graph_validation():
    with pytest.raises(DomainError):
        ClusterBipartiteGraph(num_left=-1, num_right=2, adjacency=())
    with pytest.raises(DomainError):
        ClusterBipartiteGraph(num_left=2, num_right=2, adjacency=((0,),))
    with pytest.raises(DomainError):
        ClusterBipartiteGraph(num_left=1, num_right=2, adjacency=((2,),))


def test_hand_example():
    graph = ClusterBipartiteGraph(2, 1, ((0,), (0,)))
    outcome = max_matching(graph)
    assert outcome.size == 1
    assert outcome.pairs == ((0, 0),)
    assert outcome.unmatched_left == (1,)


def test_empty_graph():
    outcome = max_matching(ClusterBipartiteGraph(0, 3, ()))
    assert outcome.size == 0
    assert outcome.pairs == ()


graphs = st.integers(min_value=0, max_value=10).flatmap(
    lambda nl: st.integers(min_value=1, max_value=10).flatmap(
        lambda nr: st.tuples(
            st.just(nl),
            st.just(nr),
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=nr - 1), max_size=nr, unique=True
                ).map(tuple),
                min_size=nl,
                max_size=nl,
            ).map(tuple),
        )
    )
)


@settings(max_examples=200)
@given(graphs)
def test_matches_kuhn_oracle(data):
    nl, nr, adjacency = data
    graph = ClusterBipartiteGraph(nl, nr, adjacency)
    outcome = max_matching(graph)
    assert outcome.size == kuhn_matching_size(nl, nr, adjacency)


@settings(max_examples=200)
@given(graphs)
def test_outcome_is_valid_matching(data):
    nl, nr, adjacency = data
    outcome = max_matching(ClusterBipartiteGraph(nl, nr, adjacency))
    lefts = [u for u, _ in outcome.pairs]
    rights = [v for _, v in outcome.pairs]
    assert len(set(lefts)) == len(lefts)
    assert len(set(rights)) == len(rights)
    assert all(v in adjacency[u] for u, v in outcome.pairs)
    assert sorted(lefts + list(outcome.unmatched_left)) == list(range(nl))
    assert lefts == sorted(lefts)


@settings(max_examples=100)
@given(st.data())
def test_superset_of_perfect_matching_is_perfect(data):
    # plant a perfect matching, add noise edges: everything must match
    n = data.draw(st.integers(min_value=1, max_value=8))
    perm = data.draw(st.permutations(range(n)))
    adjacency = []
    for u in range(n):
        extra = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)
        )
        adjacency.append(tuple({perm[u], *extra}))
    outcome = max_matching(ClusterBipartiteGraph(n, n, tuple(adjacency)))
    assert outcome.size == n
    assert outcome.unmatched_left == ()


def test_fractional_load():
    assert fractional_load([(0, 1.0)], [3], [2]) == pytest.approx(1.5)
    assert fractional_load([(0, 1.0), (1, 1.0)], [1, 1], [2, 2]) == pytest.approx(1.0)
    # zero-fraction entries are skipped even with copy count 0
    assert fractional_load([(0, 0.0)], [4], [0]) == 0.0
    with pytest.raises(MissingCopyCount):
        fractional_load([(0, 1.0)], [4], [0])


def _assert_dealt_like_python(cache_ids, cache_starts, copies, d):
    cache_sets = python_deal_round_robin(copies, d)
    assert cache_ids.dtype == cache_starts.dtype == np.int64
    assert cache_ids.tolist() == [k for caches in cache_sets for k in caches]
    assert cache_starts.tolist() == np.concatenate(([0], np.cumsum(copies)[:-1])).tolist()


def test_deal_round_robin_matches_python_dealer():
    gen = np.random.default_rng(4)
    for _ in range(2_000):
        d = int(gen.integers(1, 13))
        copies = gen.integers(0, d + 1, size=int(gen.integers(1, 25)))
        copies[gen.random(copies.size) < 0.2] = 0
        copies[gen.random(copies.size) < 0.2] = d
        _assert_dealt_like_python(*deal_round_robin(copies, d), copies, d)
    zeros = np.zeros(5, dtype=np.int64)
    _assert_dealt_like_python(*deal_round_robin(zeros, 3), zeros, 3)
    # replicated-shallow and steep-mlp benchmark placements, configs/steep.json, beta = 0.5
    for config in (
        make_config(K=1200, d=120, N=1200, M=16.0, rho=0.2),
        make_config(K=600, d=60, N=600, M=24.0, rho=0.2, beta=0.5),
        load_config("configs/steep.json"),
        make_config(K=4096, d=64, N=4096, M=4.0, rho=0.1, beta=2.0, t0=0.1),
    ):
        catalog = build_catalog(config.N, config.beta)
        if config.beta < 1:
            placement = proportional_placement(config, catalog)
        else:
            placement = solve_fractional_knapsack(build_knapsack(config, catalog))
        _assert_dealt_like_python(placement.cache_ids, placement.cache_starts, placement.copies, config.d)
