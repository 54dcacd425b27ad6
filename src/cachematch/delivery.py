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

from .traffic import RequestProfile, distinct_counts, group_counts, group_keys, within_caps


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


def first_d_rows(block: RequestProfile, caps: list[int], coded_files: list[int],
                 rate: Callable[[int, float, int, int], float], file_color: np.ndarray | None = None) -> np.ndarray:
    """Rows (total, coded term, unmatched users) of the block's trials, at
    its config.  Each cluster gives its first caps[x] requests for color x,
    in file order, to its caps[x] caches of that color and unicasts the
    rest; color x's coded round, of caps[x] * K/d caches over its
    coded_files[x] files, serves its matched users at `rate`.  pcd is one
    color of d caches; hcm is one color per class of its plan.

    With one color, file_color is not read, the groups are the clusters,
    already listed in order, and the coded files are the coded_files[0] most
    popular: a matched user asking for another is unicast.  When no cluster
    is over its cap, which is almost every trial, every request matches and
    no rank is computed; otherwise a rank mask keeps each cluster's first
    caps[0].  One compare splits the matched files into pool and overflow.
    With several colors, a bincount over each request's (color, trial,
    cluster) key gives every group's load, and only when some group is over
    its cap does a stable sort by that key line the groups up for the mask.
    One sort of the matched files keyed by (trial, color) counts each
    color's distinct files per trial, whose coded rates are gathered from
    the rate table (coded_rates) and added color by color.  A color without
    caches delivers nothing; its users are unmatched.
    """
    config = block.config
    users = block.trial_totals()
    coded = 0
    if len(caps) == 1:
        pool = coded_files[0]
        keep = within_caps(block.cluster_totals(), caps[0])  # slice(None) when every request matches
        files = block.files[keep]
        matched = sizes = users if isinstance(keep, slice) else group_counts(keep, users)
        if pool < config.N:
            in_pool = files < pool
            files, sizes = files[in_pool], group_counts(in_pool, matched)
            coded = matched - sizes
        keys = group_keys(files, sizes, pool) if pool else None
    else:
        cells = block.offsets.size - 1
        color = file_color[block.files]
        group = color * cells + block.cluster_of_request()
        group_totals = np.bincount(group, minlength=len(caps) * cells)
        group_caps = np.array(caps).repeat(cells)
        per_color = np.minimum(group_totals, group_caps).reshape(len(caps), users.size, -1).sum(axis=2)
        matched, sizes = per_color.sum(axis=0), per_color.T.ravel()
        keys = group_keys(color * config.N + block.files, users, len(caps) * config.N)
        if (matched < users).any():
            # a stable sort by group keeps each group file-sorted
            keys = keys[group.argsort(kind="stable")][within_caps(group_totals, group_caps)]

    if keys is not None:
        distinct = distinct_counts(keys, sizes)  # trial by trial, color by color
        for x, (m_x, size) in enumerate(zip(caps, coded_files)):
            if m_x:
                coded = coded + coded_rates(distinct[x::len(caps)], m_x * config.num_clusters, config.M, size, rate)
    unmatched = users - matched
    rows = np.empty((users.size, 3))
    rows[:, 1] = coded
    rows[:, 2] = unmatched
    np.minimum(coded + unmatched, users, out=rows[:, 0])
    return rows
