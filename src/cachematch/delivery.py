"""Broadcast rate of coded delivery under symmetric uncoded placement.

For C caches, each storing the same M/F fraction of every file in a pool of F
files, a delivery round that must satisfy one demand per cache with n_e
distinct demanded files costs

    R(t) = [ C(C, t+1) - C(C - n_e, t+1) ] / C(C, t),     t = C*M/F integer,

normalized to one file per unit.  Non-integer t is served by memory sharing:
linear interpolation between the neighbouring integer points.

A block of trials takes the rate at each trial's distinct count; trials
share counts, so rates_by_value asks for each count once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@lru_cache(maxsize=4096)  # bounded: worker processes live for a whole sweep
def _integer_rate(num_caches: int, t: int, num_distinct: int) -> float:
    if t >= num_caches:
        return 0.0
    # C(C, t+1) / C(C, t) simplifies; the subtracted term needs one log-ratio
    lead = (num_caches - t) / (t + 1.0)
    if num_caches - num_distinct >= t + 1:
        lead -= math.exp(
            _log_binom(num_caches - num_distinct, t + 1) - _log_binom(num_caches, t)
        )
    return lead


def coded_delivery_rate(
    num_caches: int, memory: float, num_files: int, num_distinct: int
) -> float:
    """Delivery rate for num_distinct distinct demands, memory-shared in t."""
    if num_caches < 1 or num_files < 1:
        raise ValueError("need at least one cache and one file")
    if not 0 <= num_distinct <= min(num_files, num_caches):
        raise ValueError(
            f"num_distinct = {num_distinct} must lie in [0, min(files, caches)]"
        )
    if num_distinct == 0:
        return 0.0
    t = num_caches * memory / num_files
    if t >= num_caches:
        return 0.0
    lo = int(math.floor(t))
    frac = t - lo
    rate = (1.0 - frac) * _integer_rate(num_caches, lo, num_distinct)
    if frac > 0.0:
        rate += frac * _integer_rate(num_caches, lo + 1, num_distinct)
    return rate


def rates_by_value(num_distinct: np.ndarray, rate: Callable[[int], float]) -> np.ndarray:
    """rate(n) at each entry n of num_distinct, calling rate once per distinct n."""
    values = num_distinct.tolist()
    rates = {n: rate(n) for n in set(values)}
    return np.array([rates[n] for n in values], dtype=np.float64)
