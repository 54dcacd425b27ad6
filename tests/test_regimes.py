from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachematch.config import PolyKPoint
from cachematch.errors import DomainError
from cachematch.regimes import (
    BOUNDARY,
    PAM,
    PCD,
    MapCell,
    classify_shallow,
    classify_steep,
    regime_map,
    steep_exponents,
)

from oracles import steep_pcd_region


def _point(nu, delta, mu, beta):
    return PolyKPoint(nu=nu, delta=delta, mu=mu, beta=beta)


def test_shallow_verdicts():
    pcd = classify_shallow(_point(1.0, 0.5, 0.3, 0.0))
    assert pcd.winner == PCD
    assert pcd.sigma_pcd == pytest.approx(0.7, rel=1e-12)
    assert pcd.sigma_pam == 1.0
    pam = classify_shallow(_point(1.0, 0.5, 0.7, 0.5))
    assert pam.winner == PAM
    assert pam.sigma_pcd == pytest.approx(0.3, rel=1e-12)
    assert pam.sigma_pam == float("-inf")
    # mu, nu, delta all dyadic, so the tie is exact
    tie = classify_shallow(_point(1.0, 0.5, 0.5, 0.0))
    assert tie.winner == BOUNDARY
    assert tie.sigma_pam == tie.sigma_pcd == 0.5


def test_shallow_exponent_caps_at_one():
    big = classify_shallow(_point(3.0, 0.5, 0.25, 0.0))
    assert big.sigma_pcd == 1.0  # min(1, nu - mu) saturates


def test_shallow_rejects_steep():
    with pytest.raises(DomainError):
        classify_shallow(_point(1.0, 0.5, 0.5, 2.0))


@given(
    nu_c=st.integers(100, 300),
    delta_c=st.integers(1, 100),
    mu_c=st.integers(0, 100),
    beta_c=st.integers(0, 99),
)
@settings(max_examples=200, deadline=None)
def test_shallow_region_rule_property(nu_c, delta_c, mu_c, beta_c):
    nu = Fraction(nu_c, 100)
    delta = Fraction(delta_c, 100)
    mu = Fraction(mu_c, 100)
    v = classify_shallow(_point(nu, delta, mu, Fraction(beta_c, 100)))
    if mu < nu - delta:
        assert v.winner == PCD
    elif mu > nu - delta:
        assert v.winner == PAM
    else:
        assert v.winner == BOUNDARY
    assert v.sigma_pcd == float(min(Fraction(1), nu - mu))


def test_steep_exponents_exact():
    # all dyadic: results are exact rationals
    assert steep_exponents(_point(1.0, 0.25, 0.5, 2.0)) == (
        Fraction(1, 4),
        Fraction(1, 4),
    )
    # o(1) branch: mu + delta exceeds min(nu, 1/(beta-1))
    assert steep_exponents(_point(1.0, 0.75, 0.5, 2.0)) == (
        Fraction(1, 4),
        Fraction(0),
    )
    with pytest.raises(DomainError):
        steep_exponents(_point(1.0, 0.5, 0.5, 0.5))


def test_steep_verdicts():
    pcd = classify_steep(_point(1.0, 0.4, 0.1, 2.0))
    assert pcd.winner == PCD
    assert pcd.sigma_pcd == pytest.approx(0.45, rel=1e-12)
    assert pcd.sigma_pam == pytest.approx(0.5, rel=1e-12)
    pam = classify_steep(_point(1.0, 0.4, 0.3, 2.0))
    assert pam.winner == PAM
    assert pam.sigma_pcd == pytest.approx(0.35, rel=1e-12)
    assert pam.sigma_pam == pytest.approx(0.3, rel=1e-12)


def test_steep_boundary_is_exact_at_dyadic_points():
    # on mu = 1 - 2*delta (beta = 2, nu = 1) both exponents equal delta
    tie = classify_steep(_point(1.0, 0.25, 0.5, 2.0))
    assert tie.winner == BOUNDARY
    assert tie.sigma_pcd == tie.sigma_pam == 0.25
    # nudging mu by 1/64 in either direction flips the verdict
    assert classify_steep(_point(1.0, 0.25, 0.484375, 2.0)).winner == PCD
    assert classify_steep(_point(1.0, 0.25, 0.515625, 2.0)).winner == PAM


def test_steep_region_closed_form():
    # beta = 2, delta = 0.25: region is mu <= min(0.75, 0.5) = 0.5
    assert steep_pcd_region(_point(1.0, 0.25, 0.484375, 2.0))
    assert steep_pcd_region(_point(1.0, 0.25, 0.5, 2.0))  # boundary included
    assert not steep_pcd_region(_point(1.0, 0.25, 0.515625, 2.0))
    with pytest.raises(DomainError):
        steep_pcd_region(_point(1.0, 0.25, 0.5, 0.5))


def test_steep_degenerate_corner():
    # mu + delta large and mu past 1/(beta - 1): both rates vanish, so the
    # raw exponent comparison (negative vs the o(1) placeholder 0) says PCD
    # while the closed-form region test says the point is outside.  The
    # region test is the scheme-choice authority there; the verdict only
    # reports the tracked exponents.
    corner = _point(1.0, 0.875, 1.0, 2.5)
    v = classify_steep(corner)
    assert v.winner == PCD
    assert v.sigma_pcd == pytest.approx(-0.2, rel=1e-12)
    assert v.sigma_pam == 0.0
    assert not steep_pcd_region(corner)


@given(
    nu_c=st.integers(100, 300),
    delta_c=st.integers(1, 100),
    mu_c=st.integers(0, 100),
    beta_c=st.integers(51, 200),
)
@settings(max_examples=300, deadline=None)
def test_steep_region_matches_exponents_property(nu_c, delta_c, mu_c, beta_c):
    point = _point(
        Fraction(nu_c, 100),
        Fraction(delta_c, 100),
        Fraction(mu_c, 100),
        Fraction(beta_c, 50),
    )
    sigma_pcd, _ = steep_exponents(point)
    v = classify_steep(point)
    inside = steep_pcd_region(point)
    # the region never claims a point the exponent comparison gives to PAM
    if inside:
        assert v.winner != PAM
    # off ties, the two rules agree wherever the free scheme's rate does
    # not vanish outright
    if v.winner != BOUNDARY and sigma_pcd >= 0:
        assert (v.winner == PCD) == inside


def test_map_cells_shallow():
    cells = regime_map(0.5, 1.0, 4)
    assert len(cells) == 16
    assert isinstance(cells[0], MapCell)
    # delta-major ordering with cell centers on the eighths grid
    assert (cells[0].delta, cells[0].mu) == (0.125, 0.125)
    assert (cells[1].delta, cells[1].mu) == (0.125, 0.375)
    assert (cells[4].delta, cells[4].mu) == (0.375, 0.125)
    winners = [c.verdict.winner for c in cells]
    assert winners.count(PCD) == 6
    assert winners.count(PAM) == 6
    # the anti-diagonal i + j = 3 lands exactly on mu = nu - delta
    assert winners.count(BOUNDARY) == 4
    for i in range(4):
        assert cells[4 * i + (3 - i)].verdict.winner == BOUNDARY


def test_map_cells_steep():
    cells = regime_map(2.0, 1.0, 2)
    assert [c.verdict.winner for c in cells] == [PCD, PAM, PAM, PAM]


def test_map_domain():
    with pytest.raises(DomainError):
        regime_map(0.5, 1.0, 0)
    with pytest.raises(DomainError):
        regime_map(1.0, 1.0, 4)
