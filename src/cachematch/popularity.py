"""Zipf popularity profiles and partial harmonic sums.

A catalog turns uniforms into file ids by inverse-CDF lookup through a guide
table (Chen & Asau 1974; Devroye 1986, section III.2).  With G the smallest
power of two >= N, guide[j] counts the breakpoints cdf[:-1] at or below j/G,
so the id of a uniform u in bucket j = floor(u*G) is guide[j], plus one when
the next breakpoint is also <= u.  That is exact wherever bucket j holds at
most one breakpoint; only uniforms in the few crowded buckets, steep tails
where files are packed closer than 1/G, are searched.  u*G and cdf*G are
exact in binary floating point, so every id equals
searchsorted(cdf[:-1], u, side="right").  Catalogs are read-only and cached
per (N, beta), so every run, chunk and check in a process shares one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ZipfCatalog:
    """Popularity vector p_n = n^(-beta) / A_N, n = 1..N, stored 0-indexed.

    The guide table is derived from cdf on construction, so a catalog with
    another cdf is made with dataclasses.replace, never by writing to cdf.
    """

    N: int
    beta: float
    p: np.ndarray  # shape (N,), nonincreasing, sums to 1
    cdf: np.ndarray  # cumulative sums of p, for inverse-CDF request sampling
    # the guide table, derived from cdf on construction; all read-only
    guide: np.ndarray = field(init=False, repr=False, compare=False)  # (G,) int64
    crowded: np.ndarray = field(init=False, repr=False, compare=False)  # (G,) bool
    breaks: np.ndarray = field(init=False, repr=False, compare=False)  # cdf[:-1], +inf

    def __post_init__(self) -> None:
        G = 1 << (self.N - 1).bit_length()
        breaks = np.append(self.cdf[:-1], np.inf)
        # breakpoint i lies in (j/G, (j+1)/G] for j + 1 = ceil(cdf_i * G), exactly
        slot = np.clip(np.ceil(breaks[:-1] * G), 0, G).astype(np.intp)
        per_slot = np.bincount(slot, minlength=G + 1)
        guide = np.cumsum(per_slot[:G], dtype=np.int64)
        crowded = per_slot[1:] > 1
        for name, array in (("guide", guide), ("crowded", crowded), ("breaks", breaks)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def file_ids(self, u: np.ndarray) -> np.ndarray:
        """Ids searchsorted(cdf[:-1], u, side="right") of uniforms u in [0, 1), int64."""
        j = (u * self.guide.size).astype(np.intp)
        ids = self.guide[j]
        ids += self.breaks[ids] <= u
        crowded = self.crowded[j]
        if crowded.any():
            ids[crowded] = np.searchsorted(self.breaks, u[crowded], side="right")
        return ids


# A few: the runs that share an (N, beta) come one after another, and each
# catalog kept holds about 40 * N bytes for the life of a worker process.
@lru_cache(maxsize=4)
def build_catalog(N: int, beta: float) -> ZipfCatalog:
    if N < 1:
        raise DomainError("catalog size must be >= 1")
    if beta < 0 or beta == 1.0:
        raise DomainError(f"beta = {beta} must be >= 0 and != 1")
    weights = np.arange(1, N + 1, dtype=np.float64) ** (-float(beta))
    # numpy pairwise summation keeps the normalization error ~1e-15 up to N=1e7
    norm = float(np.sum(weights))
    p = weights / norm
    cdf = np.cumsum(p)
    p.setflags(write=False)
    cdf.setflags(write=False)
    return ZipfCatalog(N=N, beta=float(beta), p=p, cdf=cdf)


def partial_sum_A(m: int, beta: float) -> float:
    """A_m = sum_{n=1}^{m} n^(-beta) by direct summation."""
    if m < 1:
        raise DomainError("m must be >= 1")
    if beta < 0:
        raise DomainError("beta must be >= 0")
    return float(np.sum(np.arange(1, m + 1, dtype=np.float64) ** (-float(beta))))


def partial_sum_envelope(m: int, beta: float) -> tuple[float, float]:
    """Sandwich (m^(1-beta) - 1)/(1-beta) <= A_m <= m^(1-beta)/(1-beta).

    Only valid for beta in [0, 1).
    """
    if not 0 <= beta < 1:
        raise DomainError("the sandwich holds for beta in [0, 1)")
    top = float(m) ** (1.0 - beta)
    return (top - 1.0) / (1.0 - beta), top / (1.0 - beta)
