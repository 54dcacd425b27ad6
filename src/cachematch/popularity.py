"""Zipf popularity profiles and partial harmonic sums."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ZipfCatalog:
    """Popularity vector p_n = n^(-beta) / A_N, n = 1..N, stored 0-indexed."""

    N: int
    beta: float
    p: np.ndarray  # shape (N,), nonincreasing, sums to 1
    norm: float  # A_N = sum_{n=1}^{N} n^(-beta)
    cdf: np.ndarray  # cumulative sums of p, for inverse-CDF request sampling


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
    return ZipfCatalog(N=N, beta=float(beta), p=p, norm=norm, cdf=cdf)


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
