"""Hierarchical color matching: color-partitioned placement and delivery.

Files are split round-robin into chi color classes; inside each cluster every
color class x receives floor(d * P_x) dedicated caches, where P_x is the
class's popularity mass (leftover caches stay colorless and idle).  Users are
matched only within their file's color, and each color runs its own coded
delivery across the clusters.  Unmatched users are unicast.

The color count chi = floor(alpha * g * d / (2 * (1 + t) * log K)) uses the
popularity split gain g = (3^(1-beta) - 1) / 4^(1-beta); when log K < 2*g*alpha
the plan degenerates to a single color.

A block of trials is accounted in one pass over all colors at once; its
clusters are (trial, cluster) pairs.  Each request gets the key (color,
trial, cluster); a bincount over the keys gives every group's request count
and so each trial's unmatched users.  Only when some group exceeds its
color's m_x does a stable sort by key line the groups up for a rank mask;
otherwise every request is matched.  One sort of trial-keyed matched files
gives the distinct files per (trial, color), and each color's coded rates
are gathered from the rate table of (m_x * K/d, M, |W_x|), then added color
by color.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .delivery import coded_delivery_rate, coded_rates
from .errors import DomainError
from .mathkit import SQRT_TWO_PI
from .pcd import unmatched_tail_term
from .popularity import ZipfCatalog
from .traffic import RequestProfile, distinct_counts, group_keys, within_caps


def popularity_split_gain(beta: float) -> float:
    """g = (3^(1-beta) - 1) / 4^(1-beta), in (0, 1/2] for beta in [0, 1)."""
    if not 0 <= beta < 1:
        raise DomainError("split gain requires beta in [0, 1)")
    e = 1.0 - beta
    return (3.0**e - 1.0) / 4.0**e


def check_slack(config: SystemConfig, t: float) -> None:
    if not 0 <= t <= config.t0:
        raise DomainError(f"t = {t} must lie in [0, t0 = {config.t0}]")


def compute_chi(config: SystemConfig, t: float) -> int:
    """Color count; returns 1 when K is too small for a multi-color plan."""
    if not 0 <= config.beta < 1:
        raise DomainError("color plans require beta in [0, 1)")
    check_slack(config, t)
    if unicast_fallback(config):
        return 1
    g = popularity_split_gain(config.beta)
    chi = int(math.floor(config.alpha * g * config.d / (2.0 * (1.0 + t) * math.log(config.K))))
    return max(1, chi)


def unicast_fallback(config: SystemConfig) -> bool:
    """True when log K < 2*g*alpha, forcing the single-color fallback."""
    g = popularity_split_gain(config.beta)
    return math.log(config.K) < 2.0 * g * config.alpha


@dataclass(frozen=True)
class ColorPlan:
    chi: int
    file_color: np.ndarray  # color of each file, 0-indexed, shape (N,)
    class_sizes: np.ndarray  # |W_x|, shape (chi,)
    class_mass: np.ndarray  # P_x, shape (chi,)
    caches_per_color: np.ndarray  # floor(d * P_x) per cluster, shape (chi,)


def build_color_plan(config: SystemConfig, catalog: ZipfCatalog, t: float) -> ColorPlan:
    if catalog.N != config.N:
        raise DomainError(f"catalog size {catalog.N} != config N {config.N}")
    chi = compute_chi(config, t)
    file_color = np.arange(config.N, dtype=np.int64) % chi
    class_sizes = np.bincount(file_color, minlength=chi)
    class_mass = np.bincount(file_color, weights=catalog.p, minlength=chi)
    # P_x is a ratio of integers for one color (1) and at beta = 0 (|W_x| / N),
    # so floor those in integers: a float sum of p can land just below d * P_x
    if chi == 1 or config.beta == 0:
        caches_per_color = config.d * class_sizes // config.N
    else:
        caches_per_color = np.floor(config.d * class_mass).astype(np.int64)
    for arr in (file_color, class_sizes, class_mass, caches_per_color):
        arr.setflags(write=False)
    return ColorPlan(chi, file_color, class_sizes, class_mass, caches_per_color)


def hcm_rate(config: SystemConfig, t: float) -> float:
    """Analytic expected rate of the color plan at slack t."""
    if not 0 <= config.beta < 1:
        raise DomainError("color-plan rate requires beta in [0, 1)")
    chi = compute_chi(config, t)  # checks the slack
    N, M, K = config.N, config.M, config.K
    unmatched = unmatched_tail_term(K, t)
    if M >= math.ceil(N / chi):
        return unmatched
    if M == 0:
        return config.rho * K
    if M <= math.floor(N / chi):
        return min(config.rho * K, N / M - chi + unmatched)
    leftover_classes = N % chi
    coded = leftover_classes * (math.ceil(N / chi) / M - 1.0)
    return min(config.rho * K, coded + unmatched)


def unmatched_chain_bound(plan: ColorPlan, config: SystemConfig) -> float:
    """(1/sqrt(2*pi)) * K * sum_x P_x * (2*rho*e^(1-2*rho))^floor(d*P_x)."""
    base = 2.0 * config.rho * math.exp(1.0 - 2.0 * config.rho)
    terms = plan.class_mass * base ** plan.caches_per_color.astype(np.float64)
    return config.K * float(terms.sum()) / SQRT_TWO_PI


def hcm_simulate(block: RequestProfile, plan: ColorPlan) -> np.ndarray:
    """Rows (total, coded term, unmatched users) of the block's trials, at its config, under the color plan."""
    config = block.config
    files = block.files
    users = block.trial_totals()
    cells = block.offsets.size - 1  # (trial, cluster) pairs
    caps = plan.caches_per_color

    # group (x, cell) holds the cell's requests for color x; it matches its
    # first m_x requests in file order, as a pcd cluster matches its first d
    color = plan.file_color[files]
    key = color * cells + block.cluster_of_request()
    group_totals = np.bincount(key, minlength=plan.chi * cells)
    group_caps = caps.repeat(cells)
    matched = np.minimum(group_totals, group_caps).reshape(plan.chi, users.size, -1).sum(axis=2)
    unmatched = users - matched.sum(axis=0)
    # file ids keyed by (trial, color): each key's distinct files are the
    # demands of that color's coded round in that trial
    ids = group_keys(color * config.N + files, users, plan.chi * config.N)
    if unmatched.any():
        # a stable sort by group keeps each group file-sorted
        order = key.argsort(kind="stable")
        ids = ids[order][within_caps(group_totals, group_caps)]
    distinct = distinct_counts(ids, matched.T.ravel()).reshape(users.size, plan.chi)

    coded = np.zeros(users.size)
    for x, (m_x, size) in enumerate(zip(caps.tolist(), plan.class_sizes.tolist())):
        if m_x:  # a color without caches delivers nothing; its users are unmatched
            coded += coded_rates(distinct[:, x], m_x * config.num_clusters, config.M, size, coded_delivery_rate)
    rows = np.empty((users.size, 3))
    rows[:, 1] = coded
    rows[:, 2] = unmatched
    np.minimum(coded + unmatched, users, out=rows[:, 0])
    return rows
