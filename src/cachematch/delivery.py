"""Broadcast rate of coded delivery under symmetric uncoded placement.

For C caches, each storing the same M/F fraction of every file in a pool of F
files, a delivery round that must satisfy one demand per cache with n_e
distinct demanded files costs

    R(t) = [ C(C, t+1) - C(C - n_e, t+1) ] / C(C, t),     t = C*M/F integer,

normalized to one file per unit.  Non-integer t is served by memory sharing:
linear interpolation between the neighbouring integer points.

A block of trials takes the rate at each trial's distinct count from the
rate table of its (caches, memory, files) key: coded_rates computes each
count's rate once per key and gathers a block's rates in one index.  The
tables are the only cache of rates; coded_delivery_rate computes anew.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


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


# Keys whose rate tables a process holds.  The rows and schemes of the
# shipped figure sweep and its two verify-bounds runs ask for 91 keys; a
# table holds one float per count up to the largest asked, and a count is at
# most the requests of one trial.
RATE_TABLE_KEYS = 128
_rate_tables: dict[tuple[int, float, int], np.ndarray] = {}


def coded_rates(
    num_distinct: np.ndarray,
    num_caches: int,
    memory: float,
    num_files: int,
    rate: Callable[[int, float, int, int], float],
) -> np.ndarray:
    """rate(num_caches, memory, num_files, n) at each entry n of num_distinct.

    The key (num_caches, memory, num_files) has a table of the rates found so
    far, NaN where none is, grown to the largest count asked; a count missing
    from it is filled by one call of `rate`, which callers pass as their
    module's coded_delivery_rate, so a wrapper put on that name sees each
    fill.  The tables of the RATE_TABLE_KEYS keys that came in last are
    held: a new key past them drops the key that came in first.  Not locked:
    trials run in processes, never in threads.
    """
    key = (num_caches, memory, num_files)
    table = _rate_tables.get(key)
    if table is None:
        if len(_rate_tables) >= RATE_TABLE_KEYS:
            del _rate_tables[next(iter(_rate_tables))]
        table = _rate_tables[key] = np.empty(0)
    try:
        rates = table[num_distinct]
    except IndexError:  # a count past the table's end
        pass
    else:
        if not math.isnan(np.add.reduce(rates)):
            return rates
    top = int(num_distinct.max())
    if top >= table.size:
        table = _rate_tables[key] = np.concatenate((table, np.full(top + 1 - table.size, np.nan)))
    for n in set(num_distinct.tolist()):
        if math.isnan(table[n]):
            table[n] = rate(num_caches, memory, num_files, n)
    return table[num_distinct]
