"""Exact Poisson tail machinery used by the rate formulas and their tests.

Every quantity here is computed by direct series summation (truncated once the
remaining mass is negligible at double precision), so simulation results and
closed-form bounds can be checked against each other without Monte Carlo noise.
Natural logarithms throughout.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# pmf increments below this fraction of the accumulated sum are dropped
_REL_TAIL = 1e-17


def power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent for base > 0, or its limit +inf where that overflows a double."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def cramer_h(x: float) -> float:
    """Rate function h(x) = x*log(x) + 1 - x of a unit-mean Poisson variable.

    Defined for x >= 0 with the continuous extension h(0) = 1.  Nonnegative,
    zero only at x = 1.
    """
    if x < 0:
        raise ValueError("h(x) requires x >= 0")
    if x == 0.0:
        return 1.0
    return x * math.log(x) + 1.0 - x


def poisson_pmf(k: int, lam: float) -> float:
    """Pr{Y = k} for Y ~ Poisson(lam), exact in double precision."""
    if k < 0:
        return 0.0
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_tail(m: int, lam: float) -> float:
    """Pr{Y >= m} for Y ~ Poisson(lam) by series summation."""
    if m <= 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    if m <= lam:
        # lower part is the smaller sum
        acc = 0.0
        for k in range(0, m):
            acc += poisson_pmf(k, lam)
        return max(0.0, 1.0 - acc)
    acc = 0.0
    k = m
    while True:
        term = poisson_pmf(k, lam)
        acc += term
        k += 1
        if term <= _REL_TAIL * max(acc, 1e-300) and k > lam + 1:
            return acc


def expected_excess(lam: float, m: int) -> float:
    """E[(Y - m)^+] for Y ~ Poisson(lam), by direct series summation."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if lam == 0.0:
        return 0.0
    acc = 0.0
    k = m + 1
    while True:
        term = (k - m) * poisson_pmf(k, lam)
        acc += term
        k += 1
        if term <= _REL_TAIL * max(acc, 1e-300) and k > lam + 1:
            return acc


def conditional_mean_above(lam: float, m: int) -> float:
    """E[Y | Y >= m] for Y ~ Poisson(lam).

    Uses the identity E[Y 1{Y >= m}] = lam * Pr{Y >= m - 1}.
    """
    tail = poisson_tail(m, lam)
    if tail == 0.0:
        raise DomainError(f"Pr(Y >= {m}) underflows for lam={lam}")
    return lam * poisson_tail(m - 1, lam) / tail


def poisson_upper_tail_bound(mu: float, eps: float) -> float:
    """Chernoff bound exp(-mu*h(1+eps)) on Pr{Y >= (1+eps)mu}, Y ~ Poisson(mu)."""
    if mu <= 0 or eps <= 0:
        raise ValueError("need mu > 0 and eps > 0")
    return math.exp(-mu * cramer_h(1.0 + eps))


def excess_stirling_bound(m: int, gamma: float) -> float:
    """Upper bound (1/sqrt(2*pi)) * m * (gamma*e^(1-gamma))^m on E[(Y - m)^+]

    for Y ~ Poisson(gamma*m) with gamma in (0, 1).
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be a positive integer")
    return m * (gamma * math.exp(1.0 - gamma)) ** m / SQRT_TWO_PI


def bernoulli_kl(a: float, b: float) -> float:
    """KL divergence D(a || b) between Bernoulli(a) and Bernoulli(b), in nats."""
    if not (0 <= a <= 1 and 0 < b < 1):
        raise ValueError("need a in [0,1] and b in (0,1)")
    out = 0.0
    if a > 0:
        out += a * math.log(a / b)
    if a < 1:
        out += (1 - a) * math.log((1 - a) / (1 - b))
    return out
