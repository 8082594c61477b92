"""``counts_upto`` counts N at many lambda in one walk, as ``count_upto`` would.

``counts_upto`` walks the octant once, below its largest lambda, and counts
every block piece at all its lambda in one vector kernel call; ``count_upto``
walks below its own lambda.  Both must give the same integers, in the order
the lambda came, also when blocks are cut small or every block must widen.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox import spectrum
from eigenbox.bounds import a1_lower_bound
from eigenbox.spectrum import (
    COUNT_EPS,
    Cuboid,
    ResourceLimitError,
    UNIT_CUBE,
    _nmax_vec,
    count_upto,
    counts_upto,
)
from eigenbox.suites import lemma41_suite

EXTRA_BOXES = [Cuboid.from_sides(0.2, 0.5), Cuboid.from_sides(0.05, 1.0), UNIT_CUBE]
FIXED_BOXES = [Cuboid.from_sides(0.7, 0.9), *EXTRA_BOXES]
# Unsorted, repeated, holding 0.0, one entry and none.
FIXED_LISTS = [
    [5000.0, 0.0, 12345.6, 29.6, 5000.0, 800.25],
    [0.0],
    [3e4],
    [0.0, 0.0],
    [1.0, 2.0, 3.0],
    [],
]


@st.composite
def boxes(draw):
    """Boxes of the search domain a1 <= a2 <= a3, plus two flat ones and the cube."""
    if draw(st.booleans()):
        return draw(st.sampled_from(EXTRA_BOXES))
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


@st.composite
def lam_lists(draw, lam_max=2e5):
    lams = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, lam_max)), max_size=12))
    # Repeat some entries, in a shuffled order.
    lams += draw(st.lists(st.sampled_from(lams), max_size=3)) if lams else []
    return draw(st.permutations(lams))


def check(cuboid, lams):
    assert counts_upto(cuboid, lams) == [count_upto(cuboid, lam) for lam in lams]


@settings(max_examples=80)
@given(cuboid=boxes(), lams=lam_lists())
@example(cuboid=UNIT_CUBE, lams=[29.608813203268074, 0.0, 59.21762640653615])
def test_equals_count_upto_per_lambda(cuboid, lams):
    check(cuboid, lams)


@pytest.mark.parametrize("lams", FIXED_LISTS)
def test_fixed_lists(lams):
    for cuboid in FIXED_BOXES:
        check(cuboid, lams)
        check(cuboid, tuple(lams))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks(block, monkeypatch):
    # Blocks this small cut the octant into many pieces, one column each at 1.
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    for cuboid in FIXED_BOXES:
        for lams in FIXED_LISTS:
            check(cuboid, lams)


def test_short_width_estimates_widen(monkeypatch):
    # Every block's first guess is one column, so every block must widen
    # until its first row's last column is empty.
    monkeypatch.setattr(spectrum, "_slice_width", lambda rem, q2: 1)
    for cuboid in FIXED_BOXES:
        for lams in FIXED_LISTS:
            check(cuboid, lams)


def test_rows_of_lambda_equal_scalar_kernel_calls():
    cuboid = Cuboid.from_sides(0.3, 1.1)
    q1, q2, q3 = cuboid.inv_sq
    t2 = np.arange(1.0, 40.0)
    c = q1 + (t2 * t2) * q2
    edges = np.array([3e4, 1e4, 2.5e3, 0.0]) * (1.0 + COUNT_EPS)
    rows = _nmax_vec(c, q3, edges[:, None])
    assert rows.shape == (len(edges), len(c))
    for row, lam_eff in zip(rows, edges):
        assert np.array_equal(row, _nmax_vec(c, q3, float(lam_eff)))


def test_refuses_what_count_upto_refuses():
    # a3 = 1e8: each column of the first slice below 1e14 holds about 3e14
    # points, so the slice's sum could pass 2^53; lambda below about 2e9
    # holds no point at all.
    box = Cuboid.from_sides(1e-4, 1e-4)
    with pytest.raises(ResourceLimitError):
        counts_upto(box, [1e3, 1e14, 5e9])
    small = [1e3, 5e9, 2.5e9, 1e10]
    assert counts_upto(box, small) == [count_upto(box, lam) for lam in small]
    assert counts_upto(box, small)[3] > 0
    # The first slice of (1e-3, 3e-3) below 1e14 spans 9.5k columns of 1e12
    # points each: only the bound on the largest row's sum refuses it.
    with pytest.raises(ResourceLimitError):
        counts_upto(Cuboid.from_sides(1e-3, 3e-3), [1e3, 1e14])


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_bad_lambda_raises_the_count_upto_error(bad):
    with pytest.raises(ValueError) as one:
        count_upto(UNIT_CUBE, bad)
    with pytest.raises(ValueError) as many:
        counts_upto(UNIT_CUBE, [10.0, bad, 20.0])
    assert str(many.value) == str(one.value)


@pytest.mark.parametrize("seed", [0, 4])
def test_lemma41_suite_counts_each_row(seed):
    reports = lemma41_suite(200, seed)
    assert len(reports) == 2000
    for r in reports:
        box = Cuboid(r.inputs["a1"], r.inputs["a2"], r.inputs["a3"])
        assert r.lhs == float(count_upto(box, r.inputs["lam"]))
