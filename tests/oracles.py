"""Closed-form and loop-based oracles that only the tests call.

Each one states a quantity the program computes another way: the distinct
requested files of a profile, one cache's fractional load, and the
closed-form steep region in which the replication-free scheme wins.
"""

from fractions import Fraction

from cachematch.errors import DomainError


class MissingCopyCount(ValueError):
    """A stored file has copy count zero, so per-copy load is undefined."""


def distinct_files(profile) -> int:
    """Number of files with at least one request."""
    return len(set(profile.files.tolist()))


def fractional_load(placement_at_cache, requests, copies) -> float:
    """Load sum_n u_n / d_n of one cache over its stored files.

    placement_at_cache lists (file, stored fraction) pairs; entries with zero
    fraction are ignored.  requests and copies are indexable by file id.
    Raises MissingCopyCount when a stored file has copy count zero.
    """
    load = 0.0
    for n, frac in placement_at_cache:
        if frac <= 0:
            continue
        d_n = copies[n]
        if d_n == 0:
            raise MissingCopyCount(f"file {n} is stored but has copy count 0")
        load += requests[n] / d_n
    return load


def steep_pcd_region(point) -> bool:
    """Closed-form region test: mu <= min{nu - delta, (1 - beta*delta)/(beta - 1)}."""
    if point.beta <= 1:
        raise DomainError("steep region requires beta > 1")
    b = Fraction(point.beta)
    nu, delta, mu = Fraction(point.nu), Fraction(point.delta), Fraction(point.mu)
    return mu <= min(nu - delta, (1 - b * delta) / (b - 1))
