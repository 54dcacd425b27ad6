"""Numerical verification of every inequality the analysis relies on.

Each check evaluates one proved inequality (or structural property) at a
concrete config, in closed form, against a short Monte Carlo run with 3-sigma
slack, or on the blocks of trials (montecarlo.blocks) that such a run scores.
The checks form one ordered table: each row is a check's name, its function,
and the reason it is skipped at this config (None when it runs).  Checks
whose preconditions the config does not meet are reported as SKIPPED, never
silently dropped; in particular, when the config misses the cluster-size
floor d >= (2*(1+t0)/alpha)*ln K, all checks that compare simulation against
the t0-tail formulas are skipped because those formulas are only guaranteed
above the floor.  A check that raises DomainError or InsufficientMemory is
skipped with that message; any other exception fails it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .bounds import (
    cutset_bounds,
    distinct_files_tail_bound,
    gap_constant,
    optimality_gap,
    shallow_lower_bound,
)
from .config import SystemConfig, validate
from .errors import DomainError, InsufficientMemory
from .hcm import hcm_rate, unmatched_chain_bound
from .hcm import build_color_plan  # not called here; perfbench/spans.py still wraps this name
from .mathkit import (
    conditional_mean_above,
    excess_stirling_bound,
    expected_excess,
    poisson_pmf,
    poisson_tail,
    poisson_upper_tail_bound,
    power_or_inf,
)
from .montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
    blocks,
    collect_trials,
    mean_and_stderr,
    prepared,
    summarize,
)
from .pam_shallow import load_decay_exponent, matched_requests, memory_threshold, pam_shallow_serve
from .pam_steep import build_knapsack, cluster_matchings, steep_order_value
from .pcd import cluster_unmatched_bound, pcd_rate_shallow, unmatched_tail_term
from .popularity import build_catalog, partial_sum_A, partial_sum_envelope
from .traffic import MATCHING_ROLE, reseat, stream

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckOutcome, ...]
    warnings: tuple[str, ...]

    @property
    def failed(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    @property
    def all_pass(self) -> bool:
        return not self.failed

    def to_json(self) -> str:
        payload = {
            **asdict(self),
            "passed": sum(c.status == PASS for c in self.checks),
            "failed": len(self.failed),
            "skipped": sum(c.status == SKIPPED for c in self.checks),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _outcome(name: str, fn) -> CheckOutcome:
    try:
        ok, detail = fn()
    except (DomainError, InsufficientMemory) as exc:
        return CheckOutcome(name, SKIPPED, str(exc))
    except Exception as exc:  # an unexpected crash is a failure, not a skip
        return CheckOutcome(name, FAIL, f"raised {exc!r}")
    return CheckOutcome(name, PASS if ok else FAIL, detail)


def _binomial_tail(n: int, q: float, k0: int) -> float:
    """Exact Pr{Bin(n, q) >= k0} via log-space summation."""
    if k0 <= 0:
        return 1.0
    if k0 > n:
        return 0.0
    lq, l1q = math.log(q), math.log1p(-q)
    total = 0.0
    for j in range(k0, n + 1):
        lc = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        total += math.exp(lc + j * lq + (n - j) * l1q)
    return min(total, 1.0)


def verify_config(config: SystemConfig, seed: int = 0, trials: int = 400) -> VerificationReport:
    warnings = validate(config)
    # a bad seed or trial count fails here, not as per-check skips or FAILs
    stream(seed, 0)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    catalog = build_catalog(config.N, config.beta)
    lam = config.rho * config.d  # mean requests per cluster
    exact_u0 = config.num_clusters * expected_excess(lam, config.d)  # E[U0] = (K/d)*E[(Y-d)+]
    shallow = 0 <= config.beta < 1

    # --- skip reasons, None where the precondition holds -----------------
    floor = None if config.meets_cluster_floor else "cluster floor not met"
    tail_floor = floor and (
        f"cluster floor not met (d = {config.d} < {config.cluster_floor:.4g}); "
        "t0-tail formulas are not guaranteed"
    )
    not_shallow = None if shallow else "requires beta in [0, 1)"
    above = shallow and config.M >= memory_threshold(config)
    below = not_shallow or (None if above else "memory below replication threshold")
    not_steep = None if config.beta > 1 and config.d >= 2 else "requires beta > 1 and d >= 2"

    # --- state shared by several checks, built on first use --------------
    # placements and plans come from montecarlo's memo, at the slack t0 the
    # Monte Carlo runs use, so the checks and the runs share one copy
    @cache
    def mc_run(scheme):  # (per-trial rows, their RateReport)
        spec = ExperimentSpec(config=config, scheme=scheme, trials=trials, seed=seed)
        rows = collect_trials(spec)
        return rows, summarize(spec, rows)

    def state(scheme):
        return prepared(scheme, config, config.t0)

    # --- scalar tail machinery -------------------------------------------
    def partial_sum_sandwich():
        if not shallow:
            raise DomainError("sandwich envelope applies to beta in [0, 1)")
        for m in sorted({1, 2, 10, min(100, config.N), config.N}):
            lo, hi = partial_sum_envelope(m, config.beta)
            val = partial_sum_A(m, config.beta)
            if not lo <= val <= hi:
                return False, f"sandwich violated at m={m}: {lo} <= {val} <= {hi}"
        return True, f"A_m within [(m^(1-b)-1)/(1-b), m^(1-b)/(1-b)] up to m={config.N}"

    def excess_vs_mode():
        m = max(config.d, int(math.ceil(lam)))
        lhs = expected_excess(lam, m)
        rhs = m * poisson_pmf(m, lam)
        ok = lhs <= rhs + 1e-10
        return ok, f"E[(Y-m)+] = {lhs:.6g} vs m*pmf = {rhs:.6g} at m={m}, lam={lam:.4g}"

    def conditional_mean_identity():
        m = max(1, int(math.ceil(lam)))
        direct_num = sum(j * poisson_pmf(j, lam) for j in range(m, m + 400))
        direct_den = sum(poisson_pmf(j, lam) for j in range(m, m + 400))
        formula = conditional_mean_above(lam, m)
        rel = abs(direct_num / direct_den - formula) / max(1.0, formula)
        return rel <= 1e-10, f"identity residual {rel:.3g} at m={m}"

    def chernoff_tail():
        for eps in (0.1, 0.5, 1.0):
            m0 = int(math.ceil((1.0 + eps) * lam))
            tail = poisson_tail(m0, lam)
            bound = poisson_upper_tail_bound(lam, eps)
            if tail > bound:
                return False, f"tail {tail:.6g} > bound {bound:.6g} at eps={eps}"
        return True, "Pr{Y >= (1+eps)lam} <= exp(-lam*h(1+eps)) for eps in {0.1, 0.5, 1}"

    def excess_factorial():
        lhs = expected_excess(lam, config.d)
        rhs = excess_stirling_bound(config.d, config.rho)
        return lhs <= rhs, f"E[(Y-d)+] = {lhs:.6g} vs d*(rho*e^(1-rho))^d/sqrt(2pi) = {rhs:.6g}"

    def cluster_unmatched_analytic():
        bound = cluster_unmatched_bound(config)
        return exact_u0 <= bound, f"exact E[U0] = {exact_u0:.6g} vs factorial bound {bound:.6g}"

    # --- Monte Carlo against the analytic rates --------------------------
    def rate_mc(scheme):
        def check():
            r = mc_run(scheme)[1]
            detail = f"mean rate {r.mean_rate:.6g} (se {r.stderr:.3g}) vs analytic {r.analytic_rate:.6g}"
            return r.bound_satisfied, detail

        return check

    def unmatched_tail_mc():
        mean, se = mean_and_stderr(mc_run(PCD_SCHEME)[0][:, 2])
        tail = unmatched_tail_term(config.K, config.t0)
        ok = mean <= tail + 3 * se and mean <= exact_u0 + 3 * se + 1e-12
        return ok, f"mean U0 = {mean:.6g} (se {se:.3g}) vs K^-t0 tail {tail:.6g}"

    def distinct_coverage_tail():
        if config.beta != 0:
            raise DomainError("coverage tail is proved for uniform popularity")
        if config.N < 10:
            raise DomainError("coverage tail is proved for N >= 10")
        eps = 0.2
        q = (1.0 - 1.0 / config.N) ** config.N  # per-file miss probability <= e^-1
        k0 = int(math.ceil((math.exp(-1.0) + eps) * config.N))
        exact = _binomial_tail(config.N, q, k0)
        bound = distinct_files_tail_bound(config.N, eps)
        return exact <= bound, f"exact miss tail {exact:.6g} vs KL bound {bound:.6g}"

    # --- replication scheme, shallow -------------------------------------
    def replication_threshold():
        if above:
            copies = state(PAM_SHALLOW_SCHEME).copies
            ok = (
                copies.min() >= 1
                and copies.max() <= config.d
                and int(copies.sum()) <= config.d * int(math.floor(config.M))
            )
            return ok, f"placement exists; copies sum {int(copies.sum())}, cap {config.d * int(math.floor(config.M))}"
        try:
            state(PAM_SHALLOW_SCHEME)
        except InsufficientMemory as exc:
            return True, f"below threshold, placement correctly refused: {exc}"
        return False, "below threshold but placement did not refuse"

    def load_decay_positive():
        z = load_decay_exponent(config.rho, config.beta)
        return z > 0, f"z = {z:.6g}"

    def pam_feasible_all_matched():
        placement = state(PAM_SHALLOW_SCHEME)
        bad = 0
        for _, block in blocks(config, seed, 0, min(trials, 50)):
            # a trial evicts nothing exactly when it broadcasts nothing
            for i in np.flatnonzero(pam_shallow_serve(block, placement, config).rates == 0):
                trial = block.between(i, i + 1)
                bad += matched_requests(trial, placement, config) != trial.total_users
        return bad == 0, f"{bad} feasible trials with unmatched users"

    # --- lower bounds and the gap -----------------------------------------
    def gap_ratio():
        ratio = optimality_gap(config)
        cap = gap_constant(config)
        return ratio <= cap, f"ratio {ratio:.6g} vs constant {cap:.6g}"

    def lower_bound_consistency():
        best = max(cutset_bounds(config))
        closed_form = shallow_lower_bound(config)
        achievable = [
            SCHEMES[name].analytic(config, config.t0)
            for name in (PCD_SCHEME, PAM_SHALLOW_SCHEME, HCM_SCHEME)
        ]
        worst = min(achievable)
        ok = closed_form <= worst and best <= config.rho * config.K
        return ok, f"closed form {closed_form:.6g} vs min achievable {worst:.6g}"

    # --- color plan -------------------------------------------------------
    def hcm_dominance():
        lhs = hcm_rate(config, config.t0)
        rhs = pcd_rate_shallow(config)
        return lhs <= rhs, f"color-plan rate {lhs:.6g} vs replication-free {rhs:.6g}"

    def hcm_exact_branch():
        if config.M < math.ceil(config.N / state(HCM_SCHEME).chi):
            raise DomainError("memory below the exact-branch threshold ceil(N/chi)")
        lhs = hcm_rate(config, config.t0)
        rhs = unmatched_tail_term(config.K, config.t0)
        return lhs == rhs, f"{lhs!r} == {rhs!r}"

    def hcm_chain():
        colors = state(HCM_SCHEME)
        if int(colors.caches_per_color.min()) < 1:
            raise DomainError("chain bound needs every color to own a cache")
        exact = 0.0
        for x in range(colors.chi):
            lam_x = config.rho * config.d * float(colors.class_mass[x])
            exact += config.num_clusters * expected_excess(lam_x, int(colors.caches_per_color[x]))
        bound = unmatched_chain_bound(colors, config)
        return exact <= bound, f"exact unmatched {exact:.6g} vs chain bound {bound:.6g}"

    # --- steep replication ------------------------------------------------
    def knapsack_memory():
        placement = state(PAM_STEEP_SCHEME)
        total = int(placement.copies.sum())
        ok = total <= config.d * config.M and int(placement.copies.max(initial=0)) <= config.d
        return ok, f"copies total {total} within capacity {config.d * config.M:.6g}"

    def knapsack_density_prefix():
        instance, placement = build_knapsack(config, catalog), state(PAM_STEEP_SCHEME)
        density = instance.values / instance.weights
        order = np.argsort(-density, kind="stable")
        seen_zero = False
        for n in order:
            if placement.x[n] == 0:
                seen_zero = True
            elif placement.x[n] == 1 and seen_zero:
                return False, f"file {n} taken after a denser file was dropped"
        return True, "greedy picks form a density-ordered prefix"

    def mlp_structural():
        placement = state(PAM_STEEP_SCHEME)
        held = cache(lambda n: frozenset(placement.holders[n]))
        for walked, block in blocks(config, seed, 0, min(trials, 20)):
            rngs = (reseat(seed, t, MATCHING_ROLE) for t in walked)
            requests = block.cluster_totals().tolist()
            for i, out in enumerate(cluster_matchings(block, placement, rngs)):
                trial, c = divmod(walked.start * config.num_clusters + i, config.num_clusters)
                caches = [k for _, k in out.matched]
                if len(set(caches)) != len(caches):
                    return False, f"trial {trial} cluster {c}: a cache matched twice"
                if any(k not in held(n) for n, k in out.matched):
                    return False, f"trial {trial}: matched cache lacks the file"
                if len(out.matched) + out.unmatched_requests != requests[i]:
                    return False, f"trial {trial}: request conservation broken"
        return True, "matchings feasible and request-conserving"

    def steep_envelope():
        order_value = steep_order_value(config)
        K, dM, beta = config.K, config.d * config.M, config.beta
        # below one file per cluster only the K^(1/beta) branch exists
        direct = K ** (1.0 / beta)
        if dM > 1:
            direct = min(K / power_or_inf(dM, beta - 1.0), direct)
        # exact E[# distinct uncached files requested by K users]
        uncached = catalog.p[state(PAM_STEEP_SCHEME).copies == 0]
        expected_uncached = float(np.sum(1.0 - (1.0 - uncached) ** K))
        ok = order_value == direct and expected_uncached >= 0
        return ok, f"order value {order_value:.6g}, E[uncached] {expected_uncached:.6g}"

    table = (
        ("partial-sum-sandwich", partial_sum_sandwich, None),
        ("poisson-excess-vs-mode", excess_vs_mode, None),
        ("poisson-conditional-mean", conditional_mean_identity, None),
        ("poisson-chernoff-tail", chernoff_tail, None),
        ("excess-factorial-bound", excess_factorial, None),
        ("cluster-unmatched-analytic", cluster_unmatched_analytic, None),
        ("unmatched-tail-mc", unmatched_tail_mc, tail_floor),
        ("pcd-rate-mc", rate_mc(PCD_SCHEME), tail_floor),
        ("distinct-coverage-tail", distinct_coverage_tail, None),
        ("replication-threshold", replication_threshold, not_shallow),
        ("load-decay-positive", load_decay_positive, not_shallow),
        ("pam-rate-mc", rate_mc(PAM_SHALLOW_SCHEME), below or floor),
        ("pam-feasible-all-matched", pam_feasible_all_matched, below),
        ("gap-ratio", gap_ratio, None),
        ("lower-bound-consistency", lower_bound_consistency, None),
        ("hcm-dominance", hcm_dominance, not_shallow),
        ("hcm-exact-branch", hcm_exact_branch, not_shallow),
        ("hcm-chain-bound", hcm_chain, not_shallow),
        ("hcm-rate-mc", rate_mc(HCM_SCHEME), not_shallow or floor),
        ("knapsack-memory", knapsack_memory, not_steep),
        ("knapsack-density-prefix", knapsack_density_prefix, not_steep),
        ("mlp-structural", mlp_structural, not_steep),
        ("steep-envelope", steep_envelope, not_steep),
    )
    checks = tuple(
        _outcome(name, fn) if reason is None else CheckOutcome(name, SKIPPED, reason)
        for name, fn, reason in table
    )
    return VerificationReport(checks=checks, warnings=warnings)
