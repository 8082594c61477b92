"""The unit cube's N(lambda) on the float block walk against the integer count.

``count_upto`` counts the cube with the same float64 predicate as any other
box.  With unit inverse squares every sum is an exact integer below 2^53 and
pi^2 * float(s) is monotone in s, so the float count must equal the integer
count i1^2 + i2^2 + i3^2 <= m that ``_cube_octant_count`` below takes (the
cube's former integer path, kept here as the reference).
"""

import functools
import math

from hypothesis import example, given, settings, strategies as st

from eigenbox.lattice import _cube_cutoff, count_bundle
from eigenbox.spectrum import COUNT_EPS, PI_SQUARED, UNIT_CUBE, count_upto


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
    # N from the float walk against the cube's integer T, plane, quadrant
    # and floor counts.
    assert count_bundle(UNIT_CUBE, lam).consistent()
