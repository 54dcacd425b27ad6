"""Polynomial-scaling regime classification: replication-free vs proportional.

At N = K^nu, d = K^delta, M = K^mu the two schemes' rates scale as K^sigma;
the classifier compares the exponents.  Shallow popularity admits a closed
region rule (the replication-free scheme wins exactly when mu <= nu - delta);
steep popularity compares the exponents

    sigma_free = min{ (1 - (beta-1)*mu) / beta,  nu - mu }
    sigma_prop = min{ 1/beta, 1 - (beta-1)*(delta + mu) }

with sigma_prop forced to 0 in the trivial regime mu + delta > min{nu,
1/(beta-1)}.  All comparisons run in exact rational arithmetic on the binary
values of the inputs, so boundary verdicts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def classify_shallow(point: PolyKPoint) -> RegimeVerdict:
    """Region rule for beta in [0, 1): PCD iff mu < nu - delta.

    sigma_pam is -inf past the boundary (the proportional rate decays faster
    than any power of K there).  Inside the PCD region both capped exponents
    can tie at 1; the verdict still follows the region rule.
    """
    if not 0 <= point.beta < 1:
        raise DomainError("shallow classification requires beta in [0, 1)")
    mu, nu, delta = Fraction(point.mu), Fraction(point.nu), Fraction(point.delta)
    sigma_pcd = float(min(Fraction(1), nu - mu))
    if mu < nu - delta:
        return RegimeVerdict(PCD, sigma_pcd, 1.0)
    if mu > nu - delta:
        return RegimeVerdict(PAM, sigma_pcd, float("-inf"))
    return RegimeVerdict(BOUNDARY, sigma_pcd, sigma_pcd)


def steep_exponents(point: PolyKPoint) -> tuple[Fraction, Fraction]:
    """Exact (sigma_free, sigma_prop) for beta > 1."""
    if point.beta <= 1:
        raise DomainError("steep exponents require beta > 1")
    b = Fraction(point.beta)
    nu, delta, mu = Fraction(point.nu), Fraction(point.delta), Fraction(point.mu)
    sigma_pcd = min((1 - (b - 1) * mu) / b, nu - mu)
    if mu + delta > min(nu, 1 / (b - 1)):
        sigma_pam = Fraction(0)  # proportional rate is o(1) here
    else:
        sigma_pam = min(1 / b, 1 - (b - 1) * (delta + mu))
    return sigma_pcd, sigma_pam


def classify_steep(point: PolyKPoint) -> RegimeVerdict:
    """Exponent comparison for beta > 1; BOUNDARY on exact ties."""
    sigma_pcd, sigma_pam = steep_exponents(point)
    if sigma_pcd < sigma_pam:
        winner = PCD
    elif sigma_pcd > sigma_pam:
        winner = PAM
    else:
        winner = BOUNDARY
    return RegimeVerdict(winner, float(sigma_pcd), float(sigma_pam))


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
    classify = classify_shallow if beta < 1 else classify_steep
    mu_hi = min(nu, 1.0)
    cells = []
    for i in range(resolution):
        delta = (i + 0.5) / resolution
        for j in range(resolution):
            mu = (j + 0.5) * mu_hi / resolution
            point = PolyKPoint(nu=nu, delta=delta, mu=mu, beta=beta)
            cells.append(MapCell(delta=delta, mu=mu, verdict=classify(point)))
    return tuple(cells)
