import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachematch import regimes
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
)

from oracles import fraction_verdict, steep_exponents, steep_pcd_region


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
    # every cell's PolyKPoint check still runs, before any ratio is taken
    with pytest.raises(DomainError, match="nu must be finite"):
        regime_map(2.0, 0.5, 3)
    with pytest.raises(DomainError, match="nu must be finite"):
        regime_map(2.0, float("inf"), 3)
    with pytest.raises(DomainError, match="beta must be finite"):
        regime_map(float("nan"), 1.0, 3)
    with pytest.raises(DomainError, match="beta must be finite"):
        regime_map(-0.5, 1.0, 3)


def _exact(lo, hi):
    """Fractions, dyadic sixty-fourths (exact ties are common) and floats on [lo, hi]."""
    return st.one_of(
        st.fractions(lo, hi, max_denominator=1000),
        st.integers(int(lo * 64), int(hi * 64)).map(lambda k: Fraction(k, 64)),
        st.floats(lo, hi),
    )


_BETA = st.one_of(
    _exact(0, 1).filter(lambda b: b < 1),
    _exact(1, 8).filter(lambda b: b > 1),
    # just above 1, where beta - 1 has a tiny numerator over its denominator
    st.integers(1, 52).map(lambda k: 1.0 + 2.0**-k),
    st.integers(1, 10**6).map(lambda k: Fraction(10**12 + k, 10**12)),
)


@st.composite
def _points(draw):
    nu = draw(_exact(1, 3))
    mu = draw(_exact(0, 1).filter(lambda m: m <= nu))
    delta = draw(_exact(0, 1).filter(lambda d: d > 0))
    return _point(nu, delta, mu, draw(_BETA))


@given(point=_points())
@example(point=_point(1.0, 0.5, 0.5, 0.0))  # shallow dyadic tie
@example(point=_point(1.0, 0.25, 0.5, 2.0))  # steep dyadic tie
@example(point=_point(1.0, 0.75, 0.5, 2.0))  # steep o(1) branch: mu + delta > min(nu, 1/(beta-1))
@example(point=_point(1.0, 0.875, 1.0, 2.5))  # the degenerate corner
@example(point=_point(2.0, 0.5, 0.75, 1.0 + 2.0**-52))
@example(point=_point(Fraction(4, 3), Fraction(1, 3), Fraction(2, 3), Fraction(10**12 + 1, 10**12)))
@settings(max_examples=300, deadline=None)
def test_classifier_matches_fraction_oracle(point):
    classify = classify_shallow if point.beta < 1 else classify_steep
    v = classify(point)
    # equal floats, not approx: the sigmas are the same correctly rounded quotients
    assert (v.winner, v.sigma_pcd, v.sigma_pam) == fraction_verdict(point)


@pytest.mark.parametrize("beta", [0.3, 0.9, 1 + 1e-6, 4 / 3, 2.0, 7.25])
@pytest.mark.parametrize("nu", [1.0, 4 / 3, 1.5])
def test_map_matches_fraction_oracle(beta, nu):
    for cell in regime_map(beta, nu, 12):
        v = cell.verdict
        oracle = fraction_verdict(_point(nu, cell.delta, cell.mu, beta))
        assert (v.winner, v.sigma_pcd, v.sigma_pam) == oracle


def test_importing_the_program_leaves_fractions_unloaded():
    # exact comparisons run on integer ratios, so the CLI does not pay for fractions
    src = pathlib.Path(regimes.__file__).resolve().parents[1]
    code = "import sys, cachematch.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
