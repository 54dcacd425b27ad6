import contextlib
from collections import Counter

import numpy as np
import pytest

from cachematch import montecarlo, traffic
from cachematch.config import SystemConfig


@pytest.fixture
def base_config():
    """Small shallow system: floor warning only, every scheme applicable."""
    return SystemConfig(K=100, d=10, N=100, M=10.0, rho=0.25, beta=0.0, t0=1.0)


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty profile memo in place of the process's one for this test."""
    memo = traffic._ProfileMemo()
    monkeypatch.setattr(traffic, "_memo", memo)
    return memo


@contextlib.contextmanager
def emptied_prepared():
    """montecarlo.prepared emptied on entry and on exit: a test that patches a
    prepare callee neither finds a state prepared before it nor leaves one
    built by its patch for the tests after it."""
    montecarlo.prepared.cache_clear()
    try:
        yield montecarlo.prepared
    finally:
        montecarlo.prepared.cache_clear()


@pytest.fixture
def cold_prepared():
    """An empty memo of prepared states for this test, emptied again after it."""
    with emptied_prepared() as memo:
        yield memo


@pytest.fixture
def pool_path(monkeypatch):
    """No in-process head: a parallel run sends every trial to the pool, so
    a comparison across worker counts compares rows from other processes."""
    monkeypatch.setattr(montecarlo, "HEAD_BUDGET_S", 0.0)


def count_calls(monkeypatch, module, names):
    """Calls of each module.<name> in `names`, counted from now on."""
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def make_config(**overrides):
    fields = dict(K=100, d=10, N=100, M=10.0, rho=0.25, beta=0.0, t0=1.0)
    fields.update(overrides)
    return SystemConfig(**fields)


def python_deal_round_robin(copies, d):
    """Caches holding each file, ascending, after dealing copies[n] copies of
    file n, in file order, round-robin to d caches: the loop-based dealer
    that matching.deal_round_robin's closed form replaced."""
    contents = [[] for _ in range(d)]
    cache_sets = [[] for _ in range(len(copies))]
    seq = [n for n, c in enumerate(copies) for _ in range(int(c))]
    for r, n in enumerate(seq):
        contents[r % d].append(n)
    for k, files in enumerate(contents):
        for n in files:
            cache_sets[n].append(k)  # ascending k keeps each set sorted
    return cache_sets


def generator_state(rng):
    """The bit generator's full state, with its arrays as lists."""
    state = rng.bit_generator.state
    flat = {**state, **state["state"]}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in flat.items() if k != "state"}


def runs_in_file_order(clusters, files, counts):
    """(files, bounds, firsts) of pam_steep's run walker for runs listed in
    scan order, as (cluster, file, count) triples with clusters ascending and
    each cluster's files descending: run j asks for bounds[j + 1] - bounds[j]
    copies of files[j], and cluster c holds runs firsts[c]:firsts[c + 1], in
    ascending file order."""
    order = np.lexsort((files, clusters))
    bounds = np.concatenate(([0], np.cumsum(counts[order])))
    firsts = np.searchsorted(clusters[order], np.arange(clusters.max() + 2))
    return files[order].tolist(), bounds.tolist(), firsts.tolist()
