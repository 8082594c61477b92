"""``counts_upto`` counts only the columns that reach its largest lambda.

A piece of ``_octant_pieces`` is the rectangle of its rows by its first row's
width, so its later rows, and a widened block's next columns, hold columns
whose i3 = 1 point lies above the top edge.  Those count 0 at every edge,
and ``counts_upto`` drops them before its one kernel call a piece.
``untrimmed_counts`` below is a frozen copy of the walk that counted every
column of every piece at an (m, 1) column of edges; both, and ``count_upto``
at each lambda, must give the same integers and the same refusals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenbox import spectrum
from eigenbox.bounds import a1_lower_bound
from eigenbox.spectrum import (
    COUNT_EPS,
    DEFAULT_CANDIDATE_CAP,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    UNIT_CUBE,
    _nmax_vec,
    _octant_pieces,
    count_upto,
    counts_upto,
)

BOXES = [Cuboid.from_sides(0.7, 0.9), Cuboid.from_sides(0.2, 0.5),
         Cuboid.from_sides(0.05, 1.0), UNIT_CUBE]


def untrimmed_counts(cuboid, lams):
    for lam in lams:
        if lam < 0.0 or not math.isfinite(lam):
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    edges = np.array([[lam] for lam in lams]) * (1.0 + COUNT_EPS)
    q1, q2, q3 = cuboid.inv_sq
    counts = [0] * len(lams)
    top = float(edges.max(initial=0.0))
    for i1, rows, lo, hi in _octant_pieces(cuboid.inv_sq, top, DEFAULT_CANDIDATE_CAP):
        t1 = np.arange(i1, i1 + rows, dtype=np.float64)
        t2 = np.arange(lo, hi, dtype=np.float64)
        c = (((t1 * t1) * q1)[:, None] + (t2 * t2) * q2).ravel()
        sums = spectrum._nmax_vec(c, q3, edges).sum(axis=1).tolist()
        counts = [t + s for t, s in zip(counts, sums)]
    return counts


def check(cuboid, lams):
    got = counts_upto(cuboid, lams)
    assert got == untrimmed_counts(cuboid, lams)
    assert got == [count_upto(cuboid, lam) for lam in lams]
    assert all(type(n) is int for n in got)
    return got


def trimmed_pieces(cuboid, top):
    """The pieces of the walk below ``top`` that the trim leaves empty, all
    its pieces, and the columns that the trim drops."""
    q1, q2, q3 = cuboid.inv_sq
    top_eff = top * (1.0 + COUNT_EPS)
    empty = total = dropped = 0
    for i1, rows, lo, hi in _octant_pieces(cuboid.inv_sq, top_eff, DEFAULT_CANDIDATE_CAP):
        t1 = np.arange(i1, i1 + rows, dtype=np.float64)
        t2 = np.arange(lo, hi, dtype=np.float64)
        above = (((t1 * t1) * q1)[:, None] + (t2 * t2) * q2 + q3) * PI_SQUARED > top_eff
        empty += bool(above.all())
        total += 1
        dropped += int(above.sum())
    return empty, total, dropped


@st.composite
def boxes(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(BOXES))
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


@settings(max_examples=80)
@given(cuboid=boxes(), lams=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3e5)), max_size=10),
       data=st.data())
def test_equals_the_untrimmed_walk(cuboid, lams, data):
    lams += data.draw(st.lists(st.sampled_from(lams), max_size=3)) if lams else []
    check(cuboid, data.draw(st.permutations(lams)))


@pytest.mark.parametrize("block", [1, 7])
def test_pieces_trimmed_to_nothing_are_skipped(block, monkeypatch):
    # One-column pieces: the columns past each slice's edge are whole pieces.
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    assert all(trimmed_pieces(cuboid, 5000.0)[0] > 0 for cuboid in BOXES[::3])
    for cuboid in BOXES:
        for lams in ([5000.0], [5000.0, 0.0, 12345.6, 5000.0], [0.0, 0.0]):
            check(cuboid, lams)


@pytest.mark.parametrize("lams", [[0.0], [0.0, 0.0], [], [0.0, 29.6]])
def test_lambda_zero(lams):
    for cuboid in BOXES:
        check(cuboid, lams)


def test_duplicate_and_unsorted_lambda():
    lams = [8000.0, 30.0, 8000.0, 0.0, 1234.5, 30.0, 1e4]
    for cuboid in BOXES:
        got = check(cuboid, lams)
        assert got[0] == got[2] and got[1] == got[5]


def test_one_lambda_takes_a_scalar_edge(monkeypatch):
    edges = []

    def spy(c, q, lam_eff):
        edges.append(lam_eff)
        return _nmax_vec(c, q, lam_eff)

    for cuboid in BOXES:
        for lam in (0.0, 29.6, 5000.0, 2e5):
            edges.clear()
            with monkeypatch.context() as patch:
                patch.setattr(spectrum, "_nmax_vec", spy)
                got = counts_upto(cuboid, [lam])
            assert got == untrimmed_counts(cuboid, [lam]) == [count_upto(cuboid, lam)]
            assert all(type(e) is float for e in edges)
            assert len(edges) > 0 or lam < 30.0


def test_several_pieces():
    # Below 2e6 the walk takes several blocks, and the trim drops columns
    # from each block's later rows.
    for cuboid in (Cuboid.from_sides(0.7, 0.9), UNIT_CUBE):
        empty, total, dropped = trimmed_pieces(cuboid, 2e6)
        assert total >= 5 and dropped > 0
        check(cuboid, [2e6, 5e5, 1.5e6, 0.0, 2e6])
        check(cuboid, [2e6])


def test_points_i3_1_exactly_on_the_edge_are_kept():
    # A column whose i3 = 1 point lies exactly on the top edge counts 1.
    hits = 0
    for cuboid in (Cuboid.from_sides(0.7, 0.9), Cuboid.from_sides(0.2, 0.5), UNIT_CUBE):
        q1, q2, q3 = cuboid.inv_sq
        for i1 in range(1, 6):
            for i2 in range(1, 6):
                edge = (float(i1 * i1) * q1 + float(i2 * i2) * q2 + q3) * PI_SQUARED
                lam = edge / (1.0 + COUNT_EPS)
                lams = [lam + k * math.ulp(lam) for k in range(-8, 9)]
                for lam in (x for x in lams if x * (1.0 + COUNT_EPS) == edge):
                    below = count_upto(cuboid, math.nextafter(lam, 0.0))
                    assert check(cuboid, [lam])[0] > below
                    check(cuboid, [lam / 3.0, lam, 0.0])
                    hits += 1
    assert hits >= 20


def test_refusals_are_kept():
    # tests/test_counts_upto.py: the first slice of (1e-4, 1e-4) below 1e14
    # holds columns of about 3e14 points; the trim sees fewer columns, and
    # still refuses.
    box = Cuboid.from_sides(1e-4, 1e-4)
    for count in (counts_upto, untrimmed_counts):
        with pytest.raises(ResourceLimitError):
            count(box, [1e3, 1e14, 5e9])
        with pytest.raises(ResourceLimitError):
            count(box, [1e14])
        with pytest.raises(ResourceLimitError):
            count(Cuboid.from_sides(1e-3, 3e-3), [1e3, 1e14])
    small = [1e3, 5e9, 2.5e9, 1e10]
    assert check(box, small)[3] > 0
