"""The blocked counters equal scalar per-line counts, and keep memory flat.

``count_upto``, ``count_full``, ``count_plane`` and ``_quadrant_count`` count
in blocks of at most ``_BLOCK`` columns or line points.  The references here
walk every lattice line with the scalar kernel and sum in Python integers.
"""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox import lattice, spectrum
from eigenbox.bounds import a1_lower_bound
from eigenbox.lattice import _axis_pairs, _quadrant_count, count_bundle, count_full, count_plane
from eigenbox.spectrum import COUNT_EPS, PI, PI_SQUARED, Cuboid, _nmax_scalar, count_upto

EXTRA_BOXES = [Cuboid.from_sides(0.2, 0.5), Cuboid.from_sides(0.05, 1.0)]


@st.composite
def boxes(draw):
    """Boxes of the search domain a1 <= a2 <= a3, plus two flat ones."""
    if draw(st.booleans()):
        return draw(st.sampled_from(EXTRA_BOXES))
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


def lam_for_columns(cuboid, columns):
    """The lambda at which (a1 r + 1)(a2 r + 1), r = sqrt(lambda)/pi, the
    number of (x1, x2) columns of the full lattice, equals ``columns``."""
    a, b = cuboid.a1, cuboid.a2
    r = (-(a + b) + math.sqrt((a + b) ** 2 + 4 * a * b * (columns - 1))) / (2 * a * b)
    return (PI * r) ** 2


def ref_octant(inv, lam_eff):
    q1, q2, q3 = inv
    total = 0
    i1 = 1
    while True:
        c1 = float(i1 * i1) * q1
        row = 0
        i2 = 1
        while (n := _nmax_scalar(c1 + float(i2 * i2) * q2, q3, lam_eff)) > 0:
            row += n
            i2 += 1
        if row == 0:
            return total
        total += row
        i1 += 1


def ref_full(inv, lam_eff):
    q1, q2, q3 = inv
    total = 0
    x1 = 0
    while PI_SQUARED * (c1 := float(x1 * x1) * q1) <= lam_eff:
        x2 = 0
        while PI_SQUARED * (c := c1 + float(x2 * x2) * q2) <= lam_eff:
            weight = (1 if x1 == 0 else 2) * (1 if x2 == 0 else 2)
            total += weight * (2 * _nmax_scalar(c, q3, lam_eff) + 1)
            x2 += 1
        x1 += 1
    return total


def ref_plane(qu, qv, lam_eff):
    total = 0
    u = 0
    while PI_SQUARED * (cu := float(u * u) * qu) <= lam_eff:
        total += (1 if u == 0 else 2) * (2 * _nmax_scalar(cu, qv, lam_eff) + 1)
        u += 1
    return total


def ref_quadrant(qu, qv, lam_eff):
    total = 0
    u = 1
    while (n := _nmax_scalar(float(u * u) * qu, qv, lam_eff)) > 0:
        total += n
        u += 1
    return total


def check_against_references(cuboid, lam):
    lam_eff = lam * (1.0 + COUNT_EPS)
    inv = cuboid.inv_sq
    assert count_upto(cuboid, lam) == ref_octant(inv, lam_eff)
    assert count_full(cuboid, lam) == ref_full(inv, lam_eff)
    for axis in (1, 2, 3):
        qu, qv = _axis_pairs(inv, axis)
        assert count_plane(cuboid, lam, axis) == ref_plane(qu, qv, lam_eff)
        assert _quadrant_count(qu, qv, lam_eff) == ref_quadrant(qu, qv, lam_eff)
    assert count_bundle(cuboid, lam).consistent()


@given(cuboid=boxes(), blocks=st.floats(0.02, 3.0))
@example(cuboid=EXTRA_BOXES[1], blocks=1.0)
@example(cuboid=Cuboid.from_sides(0.7, 0.9), blocks=1.0)
@settings(max_examples=20)
def test_counts_equal_scalar_lines_around_one_block(cuboid, blocks):
    # The column count runs from well below one block to across two.
    check_against_references(cuboid, lam_for_columns(cuboid, blocks * spectrum._BLOCK))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_equal_scalar_lines(block, monkeypatch):
    # Blocks this small cut slices and lines into many pieces at small lambda.
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    monkeypatch.setattr(lattice, "_BLOCK", block)
    for cuboid in [Cuboid.from_sides(0.7, 0.9), *EXTRA_BOXES]:
        for lam in (0.0, 60.0, 800.0, 2.0e4):
            check_against_references(cuboid, lam)


@pytest.mark.parametrize("block", [7, spectrum._BLOCK])
def test_short_width_estimates_widen(block, monkeypatch):
    # Every slice's first guess is one column, so every block must widen
    # until its first row's last column is empty.
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    monkeypatch.setattr(spectrum, "_slice_width", lambda rem, q2: 1)
    for cuboid in [Cuboid.from_sides(0.7, 0.9), *EXTRA_BOXES]:
        for lam in (60.0, 800.0, 2.0e4):
            assert count_upto(cuboid, lam) == ref_octant(cuboid.inv_sq, lam * (1.0 + COUNT_EPS))


@pytest.mark.parametrize("count", [count_upto, count_full])
def test_blocked_pass_memory_is_flat(count):
    # About 5M columns; held at once as float64 they would take 40 MB each.
    tracemalloc.start()
    try:
        count(Cuboid.from_sides(0.7, 0.9), 1.0e8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
