"""Polynomial-scaling regime classification: replication-free vs proportional.

At N = K^nu, d = K^delta, M = K^mu the two schemes' rates scale as K^sigma;
the classifier compares the exponents.  Shallow popularity admits a closed
region rule (the replication-free scheme wins exactly when mu <= nu - delta);
steep popularity compares the exponents

    sigma_free = min{ (1 - (beta-1)*mu) / beta,  nu - mu }
    sigma_prop = min{ 1/beta, 1 - (beta-1)*(delta + mu) }

with sigma_prop forced to 0 in the trivial regime mu + delta > min{nu,
1/(beta-1)}.  Every comparison is exact: it cross-multiplies the integer
ratios of the inputs' binary values (x.as_integer_ratio()) over positive
denominators, so boundary verdicts are reproducible.  Each reported sigma is
the correctly rounded quotient of its exact numerator and denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PolyKPoint
from .errors import DomainError

PCD = "PCD"
PAM = "PAM"
BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class RegimeVerdict:
    winner: str  # "PCD" (replication-free), "PAM" (proportional), "BOUNDARY"
    sigma_pcd: float
    sigma_pam: float


def _ratios(point: PolyKPoint) -> tuple[tuple[int, int], ...]:
    return tuple(x.as_integer_ratio() for x in (point.nu, point.delta, point.mu, point.beta))


def _winner(sign: int) -> str:
    return PCD if sign < 0 else PAM if sign > 0 else BOUNDARY


def _shallow(nu, delta, mu, beta) -> RegimeVerdict:
    """Region rule on (numerator, denominator) pairs; beta plays no part."""
    (nn, nd), (dn, dd), (mn, md) = nu, delta, mu
    free_n, free_d = nn * md - mn * nd, nd * md  # nu - mu
    sigma_pcd = 1.0 if free_n >= free_d else free_n / free_d
    winner = _winner((mn * dd + dn * md) * nd - nn * md * dd)  # sign of mu + delta - nu
    sigma_pam = 1.0 if winner == PCD else float("-inf") if winner == PAM else sigma_pcd
    return RegimeVerdict(winner, sigma_pcd, sigma_pam)


def _steep(nu, delta, mu, beta) -> RegimeVerdict:
    """Exponent comparison on (numerator, denominator) pairs; see classify_steep."""
    (nn, nd), (dn, dd), (mn, md), (bn, bd) = nu, delta, mu, beta
    gap = bn - bd  # beta - 1 = gap / bd, and gap > 0
    pn, pd = bd * md - gap * mn, bn * md  # (1 - (beta-1)*mu) / beta
    fn, fd = nn * md - mn * nd, nd * md  # nu - mu
    if fn * pd < pn * fd:
        pn, pd = fn, fd
    sn, sd = mn * dd + dn * md, md * dd  # mu + delta
    if sn * nd > nn * sd or sn * gap > bd * sd:
        qn, qd = 0, 1  # proportional rate is o(1) here
    else:
        qn, qd = bd * sd - gap * sn, bd * sd  # 1 - (beta-1)*(delta + mu)
        if bd * qd < qn * bn:  # 1/beta is smaller
            qn, qd = bd, bn
    return RegimeVerdict(_winner(pn * qd - qn * pd), pn / pd, qn / qd)


def classify_shallow(point: PolyKPoint) -> RegimeVerdict:
    """Region rule for beta in [0, 1): PCD iff mu < nu - delta.

    sigma_pam is -inf past the boundary (the proportional rate decays faster
    than any power of K there).  Inside the PCD region both capped exponents
    can tie at 1; the verdict still follows the region rule.
    """
    if not 0 <= point.beta < 1:
        raise DomainError("shallow classification requires beta in [0, 1)")
    return _shallow(*_ratios(point))


def classify_steep(point: PolyKPoint) -> RegimeVerdict:
    """Exponent comparison for beta > 1; BOUNDARY on exact ties."""
    if point.beta <= 1:
        raise DomainError("steep exponents require beta > 1")
    return _steep(*_ratios(point))


@dataclass(frozen=True)
class MapCell:
    delta: float
    mu: float
    verdict: RegimeVerdict


def regime_map(beta: float, nu: float, resolution: int) -> tuple[MapCell, ...]:
    """Classify cell centers of a resolution^2 grid over (delta, mu).

    delta spans (0, 1], mu spans [0, min(nu, 1)]; rows are delta-major.
    """
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    if beta == 1:
        raise DomainError("beta = 1 is not classifiable")
    deltas = [(i + 0.5) / resolution for i in range(resolution)]
    mus = [(j + 0.5) * min(nu, 1.0) / resolution for j in range(resolution)]
    # PolyKPoint checks each coordinate on its own, so checking row 0 and then
    # column 0 raises the DomainError of the first bad cell in row-major order
    for delta, mu in [(deltas[0], mu) for mu in mus] + [(delta, mus[0]) for delta in deltas[1:]]:
        PolyKPoint(nu=nu, delta=delta, mu=mu, beta=beta)
    classify = _shallow if beta < 1 else _steep
    nu_r, beta_r = nu.as_integer_ratio(), beta.as_integer_ratio()
    rows = [(delta, delta.as_integer_ratio()) for delta in deltas]
    columns = [(mu, mu.as_integer_ratio()) for mu in mus]
    return tuple(
        MapCell(delta=delta, mu=mu, verdict=classify(nu_r, delta_r, mu_r, beta_r))
        for delta, delta_r in rows
        for mu, mu_r in columns
    )
