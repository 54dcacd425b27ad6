import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachematch.errors import DomainError
from cachematch.popularity import build_catalog, partial_sum_A, partial_sum_envelope


def test_build_catalog_basic():
    cat = build_catalog(2, 2.0)
    assert cat.p == pytest.approx([0.8, 0.2], rel=1e-14)
    assert cat.p[0] == pytest.approx(1 / 1.25, rel=1e-14)  # p_1 = 1 / A_2
    single = build_catalog(1, 0.7)
    assert single.p[0] == 1.0


def test_build_catalog_rejects():
    with pytest.raises(DomainError):
        build_catalog(0, 0.5)
    with pytest.raises(DomainError):
        build_catalog(10, 1.0)
    with pytest.raises(DomainError):
        build_catalog(10, -0.2)


def test_catalog_is_read_only():
    cat = build_catalog(5, 0.5)
    for array in (cat.p, cat.cdf, cat.guide, cat.crowded, cat.breaks):
        with pytest.raises(ValueError):
            array[0] = 0


def test_catalog_is_built_once_per_size_and_exponent():
    build_catalog.cache_clear()
    first = build_catalog(300, 0.5)
    assert build_catalog(300, 0.5) is first
    assert build_catalog(300, 0.6) is not first and build_catalog(301, 0.5) is not first
    assert build_catalog.cache_info().hits == 1
    for _ in range(2):  # a rejected exponent is never cached
        with pytest.raises(DomainError):
            build_catalog(300, 1.0)
    maxsize = build_catalog.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 8
    for N in range(1, maxsize + 10):
        build_catalog(N, 0.5)
    assert build_catalog.cache_info().currsize == maxsize


def _lookup_keys(cdf):
    """Uniforms in [0, 1) at, and one double either side of, every breakpoint
    cdf[:-1], plus 0 and the largest double below 1."""
    breaks = cdf[:-1]
    u = np.concatenate((breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]))
    return u[(u >= 0.0) & (u < 1.0)]


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=5000),
    st.one_of(st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=1.05, max_value=3.0)),
)
def test_guide_lookup_equals_a_search_of_the_cdf(N, beta):
    built = build_catalog(N, beta)
    # a cdf ending short of 1 gets a guide of its own
    for cat in (built, dataclasses.replace(built, cdf=built.cdf * 0.5)):
        u = _lookup_keys(cat.cdf)
        want = np.searchsorted(cat.cdf[:-1], u, side="right")
        got = cat.file_ids(u)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        guide_bytes = cat.guide.nbytes + cat.crowded.nbytes + cat.breaks.nbytes
        assert guide_bytes <= 32 * N + 64


@given(
    st.integers(min_value=1, max_value=2000),
    st.one_of(st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=1.05, max_value=3.0)),
)
def test_catalog_invariants(N, beta):
    cat = build_catalog(N, beta)
    assert cat.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(cat.p) <= 0)
    assert cat.p[0] == pytest.approx(1 / partial_sum_A(N, beta), rel=1e-12)  # p_1 = 1 / A_N


@given(st.integers(min_value=1, max_value=2000), st.floats(min_value=0.0, max_value=0.95))
def test_least_popular_mass_floor(N, beta):
    # p_N = N^(-beta)/A_N >= (1-beta)/N since A_N <= N^(1-beta)/(1-beta)
    cat = build_catalog(N, beta)
    assert cat.p[-1] >= (1.0 - beta) / N - 1e-15


def test_partial_sum_frozen():
    assert partial_sum_A(2, 2.0) == pytest.approx(1.25, rel=1e-14)
    assert partial_sum_A(4, 0.5) == pytest.approx(2.784457050376173, rel=1e-13)
    assert partial_sum_A(7, 0.0) == 7.0
    with pytest.raises(DomainError):
        partial_sum_A(0, 0.5)
    with pytest.raises(DomainError):
        partial_sum_A(3, -0.1)


def test_envelope_domain():
    with pytest.raises(DomainError):
        partial_sum_envelope(10, 1.0)
    with pytest.raises(DomainError):
        partial_sum_envelope(10, -0.1)
    lo, hi = partial_sum_envelope(6, 0.0)
    assert lo == 5.0 and hi == 6.0


@given(st.integers(min_value=1, max_value=5000), st.floats(min_value=0.0, max_value=0.95))
def test_envelope_sandwiches_partial_sum(m, beta):
    lo, hi = partial_sum_envelope(m, beta)
    a_m = partial_sum_A(m, beta)
    # upper margin vanishes as beta -> 0+ (equality at beta = 0), so allow
    # summation rounding noise; a wrong formula overshoots this by orders
    slack = 1e-12 * m
    assert lo - slack <= a_m <= hi + slack
