"""The unit cube's counts on the float kernels against the integer counts.

``count_upto`` and the counters of :mod:`eigenbox.lattice` count the cube
with the same float64 predicate as any other box.  With unit inverse squares
every sum is an exact integer below 2^53 and pi^2 * float(s) is monotone in
s, so each float count must equal its integer count of x1^2 + x2^2 + x3^2 <=
m.  The integer counts below are the cube's former integer paths, kept here
as the reference.
"""

import functools
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox.lattice import count_bundle, gauss_sphere_count
from eigenbox.spectrum import (
    COUNT_EPS,
    PI_SQUARED,
    UNIT_CUBE,
    ResourceLimitError,
    count_upto,
)


def _cube_cutoff(lam_eff: float) -> int:
    m = max(int(lam_eff / PI_SQUARED), 0)
    while PI_SQUARED * float(m + 1) <= lam_eff:
        m += 1
    while m > 0 and PI_SQUARED * float(m) > lam_eff:
        m -= 1
    return m


def _disc_points_m(m: int) -> int:
    if m < 0:
        return 0
    total = 2 * math.isqrt(m) + 1
    for x in range(1, math.isqrt(m) + 1):
        total += 2 * (2 * math.isqrt(m - x * x) + 1)
    return total


def _sphere_points_m(m: int) -> int:
    if m < 0:
        return 0
    total = _disc_points_m(m)
    for z in range(1, math.isqrt(m) + 1):
        total += 2 * _disc_points_m(m - z * z)
    return total


def _quadrant_points_m(m: int) -> int:
    total = 0
    for x in range(1, math.isqrt(m) + 1):
        total += math.isqrt(m - x * x)
    return total


@functools.lru_cache(maxsize=None)
def _cube_octant_count(m: int) -> int:
    if m < 3:
        return 0
    total = 0
    for i1 in range(1, math.isqrt(m - 2) + 1):
        r1 = m - i1 * i1
        for i2 in range(1, math.isqrt(r1 - 1) + 1):
            total += math.isqrt(r1 - i2 * i2)
    return total


def reference_count(lam: float) -> int:
    return _cube_octant_count(_cube_cutoff(lam * (1.0 + COUNT_EPS)))


def lambda_forms(m: int) -> tuple[float, ...]:
    """lambda at, just inside and just past the tolerance of, just below,
    and halfway past the level pi^2 m."""
    at = PI_SQUARED * m
    return (
        at,
        at * (1.0 + 1e-10),
        at * (1.0 + 1.1e-10),
        at * (1.0 - 1e-12),
        PI_SQUARED * (m + 0.5),
    )


def test_small_levels_match_integer_count():
    for m in range(400):
        for lam in lambda_forms(m):
            assert count_upto(UNIT_CUBE, lam) == reference_count(lam), (m, lam)


@given(m=st.integers(400, 2_000_000))
@example(m=2_000_000)
@settings(max_examples=12)
def test_large_levels_match_integer_count(m):
    for lam in lambda_forms(m):
        assert count_upto(UNIT_CUBE, lam) == reference_count(lam), (m, lam)


@given(lam=st.floats(0.0, 2e5))
@example(lam=PI_SQUARED * 6)
@example(lam=PI_SQUARED * 20_000)
@settings(max_examples=30)
def test_bundle_consistent_on_cube(lam):
    # N from the octant walk against the cube's T, plane, quadrant and
    # floor counts, each from its own float kernel.
    assert count_bundle(UNIT_CUBE, lam).consistent()


def _assert_bundle_matches_integer_counts(lam: float) -> None:
    b = count_bundle(UNIT_CUBE, lam)
    m = _cube_cutoff(lam * (1.0 + COUNT_EPS))
    disc, quadrant, floor = _disc_points_m(m), _quadrant_points_m(m), math.isqrt(m)
    assert b.n == reference_count(lam), (m, lam)
    assert b.t == _sphere_points_m(m), (m, lam)
    assert (b.t_x1, b.t_x2, b.t_x3) == (disc, disc, disc), (m, lam)
    assert (b.tp_x1, b.tp_x2, b.tp_x3) == (quadrant, quadrant, quadrant), (m, lam)
    assert (b.f1, b.f2, b.f3) == (floor, floor, floor), (m, lam)


def test_small_levels_bundle_matches_integer_counts():
    for m in range(400):
        for lam in lambda_forms(m):
            _assert_bundle_matches_integer_counts(lam)


@given(m=st.integers(400, 200_000))
@example(m=200_000)
@settings(max_examples=12, deadline=None)
def test_large_levels_bundle_matches_integer_counts(m):
    for lam in lambda_forms(m):
        _assert_bundle_matches_integer_counts(lam)


def test_gauss_sphere_count_matches_integer_count():
    for r in (0, 1, 2, 10, 100):
        assert gauss_sphere_count(r) == _sphere_points_m(r * r), r
    for m in (0, 1, 2, 3, 50, 99, 100, 101, 9_999, 123_457):
        assert gauss_sphere_count(math.sqrt(m)) == _sphere_points_m(m), m


def test_gauss_sphere_count_refuses_past_the_column_cap():
    # (6001)^2 columns exceed the 24M cap: refused before any counting.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        gauss_sphere_count(6000)
    assert time.perf_counter() - start < 1.0
