"""Acceptance gate: one numbered test per shipped guarantee.

Each test pins one end-to-end contract against an independent oracle: exact
envelope inequalities, simulator means against analytic rates, greedy solvers
against brute force, and classifier verdicts against direct float arithmetic.
`pytest -v` therefore prints one pass/fail line per criterion; each test also
prints a `criterion NN PASS` summary visible under -s.  Everything is seeded
and desk scale (simulated K <= ~2e3, trials <= 1e5); the whole gate finishes
in a few minutes.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config

from cachematch.bounds import (
    DISTINCT_FRACTION,
    gap_constant,
    optimality_gap,
    shallow_lower_bound,
)
from cachematch.config import PolyKPoint
from cachematch.errors import InsufficientMemory
from cachematch.hcm import compute_chi, hcm_rate
from cachematch.matching import ClusterBipartiteGraph, max_matching
from cachematch.mathkit import conditional_mean_above, expected_excess, poisson_pmf
from cachematch.montecarlo import ExperimentSpec, collect_trials, run_experiment
from cachematch.pam_shallow import (
    matched_requests,
    memory_threshold,
    pam_shallow_rate,
    pam_shallow_serve,
    proportional_placement,
    rate_formula,
)
from cachematch.pam_steep import (
    KnapsackInstance,
    KsPlacement,
    mlp_match,
    solve_fractional_knapsack,
    steep_order_value,
)
from cachematch.pcd import (
    cluster_unmatched_bound,
    pcd_rate_shallow,
    rate_steep_formula,
    unmatched_tail_term,
)
from cachematch.popularity import build_catalog, partial_sum_A, partial_sum_envelope
from cachematch.regimes import classify_shallow, classify_steep, regime_map
from cachematch.traffic import sample_profile

from oracles import distinct_files

SEED = 8191


def test_criterion_01_partial_sum_sandwich():
    m = np.arange(1, 10_001, dtype=np.float64)
    for tenths in range(10):
        beta = tenths / 10.0
        acc = np.cumsum(m ** (-beta))
        upper = m ** (1.0 - beta)
        scaled = (1.0 - beta) * acc
        assert np.all(upper - 1.0 <= scaled)
        assert np.all(scaled <= upper)
        # tie the vectorized cumulative sum back to the library functions
        for probe in (1, 7, 100, 10_000):
            assert acc[probe - 1] == pytest.approx(partial_sum_A(probe, beta), rel=1e-12)
            lo, hi = partial_sum_envelope(probe, beta)
            assert lo <= acc[probe - 1] <= hi
    print("criterion 01 PASS: partial-sum sandwich exact for m <= 1e4, beta in [0, 0.9]")


def test_criterion_02_poisson_excess_and_conditional_mean():
    for tenths in range(1, 201):
        lam = tenths / 10.0
        for m in range(max(1, math.ceil(lam)), 41):
            excess = expected_excess(lam, m)
            assert excess <= m * poisson_pmf(m, lam) + 1e-10
            # oracle: direct pmf summation with a relative cutoff
            num = den = direct_excess = 0.0
            j = m
            while True:
                pj = poisson_pmf(j, lam)
                num += j * pj
                den += pj
                direct_excess += (j - m) * pj
                if pj < 1e-16 * den and j > lam + m:
                    break
                j += 1
            assert excess == pytest.approx(direct_excess, abs=1e-10)
            assert conditional_mean_above(lam, m) == pytest.approx(num / den, abs=1e-10)
    print("criterion 02 PASS: excess-vs-mode and conditional-mean identities to 1e-10")


def test_criterion_03_pcd_unmatched_tail():
    # d = 60 sits below the replication floor for every t >= 0 at rho = 1/4,
    # so t0 = 0.8 stresses the envelope harder than any floor-feasible slack.
    config = make_config(K=600, d=60, N=600, M=1.0, rho=0.25, t0=0.8)
    spec = ExperimentSpec(config=config, scheme="pcd", trials=100_000, seed=SEED)
    unmatched = collect_trials(spec, workers=4)[:, 2]
    mean = float(unmatched.mean())
    stderr = float(unmatched.std(ddof=1) / math.sqrt(len(unmatched)))
    assert mean <= unmatched_tail_term(config.K, config.t0) + 3.0 * stderr
    assert mean <= cluster_unmatched_bound(config) + 3.0 * stderr
    print(f"criterion 03 PASS: mean unmatched {mean:.3g} within both tail envelopes")


def test_criterion_04_pam_shallow_achievability():
    trials = 10_000
    # (beta, M, feasible): M straddles the replication threshold N/((1-beta)d)
    grid = [
        (0.0, 6.0, False),
        (0.0, 10.0, True),
        (0.0, 16.0, True),
        (0.5, 16.0, False),
        (0.5, 24.0, True),
    ]
    for beta, M, feasible in grid:
        cfg = make_config(M=M, beta=beta)
        catalog = build_catalog(cfg.N, beta)
        analytic = pam_shallow_rate(cfg)
        if not feasible:
            assert M < memory_threshold(cfg)
            with pytest.raises(InsufficientMemory):
                proportional_placement(cfg, catalog)
            assert analytic == cfg.rho * cfg.K
            # cacheless fallback broadcasts every distinct requested file
            rates = np.array(
                [
                    float(distinct_files(sample_profile(cfg, SEED, trial=t)))
                    for t in range(trials)
                ]
            )
        else:
            placement = proportional_placement(cfg, catalog)
            rates = np.empty(trials)
            feasible_trials = 0
            for t in range(trials):
                profile = sample_profile(cfg, SEED, trial=t)
                out = pam_shallow_serve(profile, placement, cfg)
                rates[t] = out.rates[0]
                if out.all_feasible:
                    feasible_trials += 1
                    assert matched_requests(profile, placement, cfg) == profile.total_users
            assert feasible_trials > 0
        stderr = float(rates.std(ddof=1) / math.sqrt(trials))
        assert float(rates.mean()) <= analytic + 3.0 * stderr
    print("criterion 04 PASS: proportional placement meets its rate on the 5-point grid")


def _kuhn_size(graph: ClusterBipartiteGraph) -> int:
    """Independent augmenting-path oracle for maximum matching cardinality."""
    match_r = [-1] * graph.num_right

    def try_aug(u, seen):
        for v in graph.adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] == -1 or try_aug(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    return sum(1 for u in range(graph.num_left) if try_aug(u, set()))


def test_criterion_05_matching_equals_bruteforce():
    rng = np.random.default_rng(SEED)
    for _ in range(1_000):
        nl = int(rng.integers(1, 26))
        nr = int(rng.integers(1, 26))
        p = float(rng.uniform(0.03, 0.5))
        adjacency = tuple(
            tuple(int(v) for v in np.nonzero(rng.random(nr) < p)[0]) for _ in range(nl)
        )
        graph = ClusterBipartiteGraph(num_left=nl, num_right=nr, adjacency=adjacency)
        out = max_matching(graph)
        assert out.size == _kuhn_size(graph)
        lefts = [u for u, _ in out.pairs]
        rights = [v for _, v in out.pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert all(v in graph.adjacency[u] for u, v in out.pairs)
        assert set(lefts) | set(out.unmatched_left) == set(range(nl))
    print("criterion 05 PASS: matching cardinality exact on 1e3 random instances")


def test_criterion_06_fractional_knapsack_optimal():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(1_000):
        n = int(rng.integers(1, 13))
        values = rng.uniform(0.01, 1.0, size=n)
        weights = rng.integers(1, 11, size=n).astype(np.int64)
        capacity = float(rng.uniform(0.0, 1.2 * float(weights.sum())))
        inst = KnapsackInstance(
            values=values,
            weights=weights,
            capacity=capacity,
            cluster_size=int(weights.max()),
            n1=1,
            n2=1,
        )
        got = float(np.dot(values, solve_fractional_knapsack(inst).x))
        # LP optimum: a subset taken whole plus at most one fractional item
        sel = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
        w_s = sel @ weights
        rem = capacity - w_s
        frac = np.clip(rem[:, None] / weights[None, :], 0.0, 1.0)
        topup = np.where(sel, 0.0, values[None, :] * frac).max(axis=1, initial=0.0)
        best = float(((sel @ values) + topup)[rem >= 0].max())
        assert got == pytest.approx(best, abs=1e-12)
    print("criterion 06 PASS: greedy fill equals the exhaustive optimum on 1e3 instances")


def _reference_mlp(requests, placement, rng):
    """Step-by-step mirror of most-popular-last matching, set-based: one
    uniform per request in scan order, drawn up front."""
    cache_sets = placement.holders
    available = {k for caches in cache_sets for k in caches}
    matched: list[tuple[int, int]] = []
    server: list[int] = []
    unmatched = 0
    uniforms = iter(rng.random(int(sum(requests))))
    for n in reversed(range(len(cache_sets))):
        short = False
        for _ in range(int(requests[n])):
            u = next(uniforms)
            cand = [k for k in cache_sets[n] if k in available]
            if not cand:
                unmatched += 1
                short = True
                continue
            k = cand[int(u * len(cand))]
            available.discard(k)
            matched.append((n, k))
        if short:
            server.append(n)
    return tuple(matched), unmatched, tuple(sorted(server))


def _random_small_placement(rng) -> KsPlacement:
    caches = int(rng.integers(2, 7))
    n_files = int(rng.integers(1, 7))
    contents = tuple(
        tuple(int(n) for n in np.nonzero(rng.random(n_files) < 0.6)[0])
        for _ in range(caches)
    )
    sets: list[list[int]] = [[] for _ in range(n_files)]
    for k, files in enumerate(contents):
        for n in files:
            sets[n].append(k)
    copies = np.array([len(s) for s in sets], dtype=np.int64)
    return KsPlacement(
        x=np.zeros(n_files),
        copies=copies,
        holders=tuple(tuple(s) for s in sets),
    )


def test_criterion_07_mlp_conformance():
    # forced instance: every candidate list has one entry, outcome seed-free
    forced = KsPlacement(
        x=np.zeros(2),
        copies=np.array([1, 1]),
        holders=((0,), (1,)),
    )
    out = mlp_match([2, 1], forced, np.random.default_rng(SEED))
    assert out.matched == ((1, 1), (0, 0))
    assert out.unmatched_requests == 1
    assert out.server_files == (0,)

    gen = np.random.default_rng(SEED + 2)
    for i in range(50):
        placement = _random_small_placement(gen)
        requests = [int(r) for r in gen.integers(0, 4, size=len(placement.copies))]
        out = mlp_match(requests, placement, np.random.default_rng(SEED + 100 + i))
        ref = _reference_mlp(requests, placement, np.random.default_rng(SEED + 100 + i))
        assert out.matched == ref[0]
        assert out.unmatched_requests == ref[1]
        assert out.server_files == ref[2]
        assert len(out.matched) + out.unmatched_requests == sum(requests)
    print("criterion 07 PASS: most-popular-last matching replays its reference exactly")


def test_criterion_08_hcm_structure():
    base = make_config(K=1024, d=256, N=1024, M=256.0, rho=0.1, beta=0.0, t0=0.5)
    assert compute_chi(base, base.t0) == 4
    # M = ceil(N / chi) puts the rate on the pure-tail branch, bitwise
    assert hcm_rate(base, base.t0) == unmatched_tail_term(base.K, base.t0)

    count = 0
    for beta in (0.0, 0.25, 0.5, 0.75, 0.9):
        for rho in (0.1, 0.25):
            for M in (0.0, 32.0, 128.0, 256.0, 512.0):
                cfg = make_config(K=1024, d=256, N=1024, M=M, rho=rho, beta=beta, t0=0.5)
                assert hcm_rate(cfg, cfg.t0) <= pcd_rate_shallow(cfg)
                count += 1
    assert count == 50

    for M in (64.0, 128.0, 256.0):
        spec = ExperimentSpec(
            config=replace(base, M=M), scheme="hcm", trials=10_000, seed=SEED
        )
        report = run_experiment(spec, workers=4)
        assert report.mean_rate <= report.analytic_rate + 3.0 * report.stderr
        assert report.bound_satisfied
    print("criterion 08 PASS: color-matching rate structure, dominance, and simulations")


def test_criterion_09_gap_against_constant():
    count = 0
    for beta in (0.0, 0.3, 0.6, 0.9):
        for rho in (0.1, 0.2, 0.25, 0.3, 0.4):
            for M in (0.5, 1.0, 2.0, 3.0, 4.0):
                cfg = make_config(M=M, rho=rho, beta=beta)
                assert cfg.N >= 10
                assert cfg.M < DISTINCT_FRACTION * cfg.N / (2.0 * cfg.d)
                assert 1.0 <= optimality_gap(cfg) <= gap_constant(cfg)
                count += 1
    assert count == 100
    print("criterion 09 PASS: achievable-to-bound ratio within the constant on 100 configs")


def test_criterion_10_lower_bound_consistency():
    for beta in (0.0, 0.3, 0.6, 0.9):
        for rho in (0.1, 0.2, 0.25, 0.3, 0.4):
            for M in (0.5, 1.0, 2.0, 3.0, 4.0):
                cfg = make_config(M=M, rho=rho, beta=beta)
                bound = shallow_lower_bound(cfg)
                assert bound <= pcd_rate_shallow(cfg)
                assert bound <= pam_shallow_rate(cfg)
                assert bound <= hcm_rate(cfg, cfg.t0)
    print("criterion 10 PASS: lower bound sits below every analytic scheme rate")


def test_criterion_11_regime_classifiers():
    rng = np.random.default_rng(SEED + 4)
    checked_shallow = checked_steep = 0
    while checked_shallow + checked_steep < 10_000:
        nu = float(rng.uniform(1.0, 3.0))
        delta = float(rng.uniform(1e-3, 1.0))
        mu = float(rng.uniform(0.0, 1.0))
        if (checked_shallow + checked_steep) % 2 == 0:
            beta = float(rng.uniform(0.0, 0.999))
            if abs(mu + delta - nu) < 1e-9:
                continue
            sigma_pcd = min(1.0, nu - mu)
            sigma_pam = float("-inf") if mu + delta > nu else 1.0
            if sigma_pam == 1.0 and nu - mu >= 1.0 - 1e-9:
                continue  # exponents tie at the unit cap; verdict is by region
            verdict = classify_shallow(PolyKPoint(nu=nu, delta=delta, mu=mu, beta=beta))
            checked_shallow += 1
        else:
            beta = float(rng.uniform(1.001, 4.0))
            cap = min(nu, 1.0 / (beta - 1.0))
            if abs(mu + delta - cap) < 1e-9:
                continue
            sigma_pcd = min((1.0 - (beta - 1.0) * mu) / beta, nu - mu)
            if mu + delta > cap:
                sigma_pam = 0.0
            else:
                sigma_pam = min(1.0 / beta, max(0.0, 1.0 - (beta - 1.0) * (delta + mu)))
            if abs(sigma_pcd - sigma_pam) < 1e-9:
                continue
            verdict = classify_steep(PolyKPoint(nu=nu, delta=delta, mu=mu, beta=beta))
            checked_steep += 1
        assert verdict.winner == ("PCD" if sigma_pcd < sigma_pam else "PAM")
        assert verdict.sigma_pcd == pytest.approx(sigma_pcd, abs=1e-12)
        if sigma_pam == float("-inf"):
            assert verdict.sigma_pam == float("-inf")
        else:
            assert verdict.sigma_pam == pytest.approx(sigma_pam, abs=1e-12)
    assert min(checked_shallow, checked_steep) >= 4_000

    # realized log-slopes of the analytic envelopes track the exponents
    def slope(r_small, r_big, k_small, k_big):
        return math.log(r_big / r_small) / math.log(k_big / k_small)

    pair = [
        pcd_rate_shallow(
            make_config(K=k, d=d, N=k, M=float(k**0.5), beta=0.5)
        )
        for k, d in ((100, 10), (1600, 40))
    ]
    assert abs(slope(*pair, 100, 1600) - 0.5) < 0.05  # nu=1, mu=1/2
    pair = [
        rate_steep_formula(K=k, N=k, M=k**0.25, rho=0.25, beta=2.0, t0=1.0)
        for k in (1e3, 1e6)
    ]
    assert abs(slope(*pair, 1e3, 1e6) - 0.375) < 0.05  # (1-(beta-1)mu)/beta
    pair = [
        steep_order_value(make_config(K=k, d=d, N=k, M=float(k**0.25), beta=2.0))
        for k, d in ((100, 10), (1600, 40))
    ]
    assert abs(slope(*pair, 100, 1600) - 0.25) < 0.05  # 1-(beta-1)(delta+mu)
    pair = [rate_formula(K=k, N=k, M=k**0.25, d=k**0.5, rho=0.25, beta=0.5) for k in (1e3, 1e6)]
    assert abs(slope(*pair, 1e3, 1e6) - 1.0) < 0.05  # unicast-capped branch
    pair = [rate_formula(K=k, N=k, M=k**0.75, d=k**0.5, rho=0.25, beta=0.5) for k in (1e12, 1e15)]
    assert slope(*pair, 1e12, 1e15) < -2.0  # superpolynomial decay past the threshold

    # crossing beta = 1 barely moves the map: compare winners cell by cell
    res = 50
    steep_cells = regime_map(1.0 + 1e-6, 1.0, res)
    shallow_cells = regime_map(0.9, 1.0, res)
    mismatches = sum(
        1
        for a, b in zip(steep_cells, shallow_cells)
        if a.verdict.winner != b.verdict.winner
    )
    assert mismatches < 0.01 * res * res
    print("criterion 11 PASS: classifiers match float exponents; maps continuous at beta=1")


def test_criterion_12_deterministic_reports(pool_path):
    cfg = make_config(K=20, d=10, N=20, M=2.0)
    spec = ExperimentSpec(config=cfg, scheme="pcd", trials=64, seed=SEED)
    serial = run_experiment(spec, workers=1).to_json(cfg)
    assert run_experiment(spec, workers=1).to_json(cfg) == serial
    assert run_experiment(spec, workers=2).to_json(cfg) == serial

    shallow_cfg = make_config(M=16.0)
    spec = ExperimentSpec(config=shallow_cfg, scheme="pam-shallow", trials=16, seed=SEED + 7)
    assert (
        run_experiment(spec, workers=2).to_json(shallow_cfg)
        == run_experiment(spec, workers=1).to_json(shallow_cfg)
    )

    steep_cfg = make_config(K=16, d=16, N=64, M=2.0, beta=2.0, t0=0.1)
    spec = ExperimentSpec(config=steep_cfg, scheme="pam-steep", trials=33, seed=SEED + 9)
    assert (
        run_experiment(spec, workers=3).to_json(steep_cfg)
        == run_experiment(spec, workers=1).to_json(steep_cfg)
    )

    hcm_cfg = make_config(K=20, d=10, N=20, M=2.0)
    spec = ExperimentSpec(config=hcm_cfg, scheme="hcm", trials=32, seed=SEED)
    assert (
        run_experiment(spec, workers=2).to_json(hcm_cfg)
        == run_experiment(spec, workers=1).to_json(hcm_cfg)
    )
    print("criterion 12 PASS: serial and fanned-out runs emit byte-identical reports")
