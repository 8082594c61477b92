"""The counting kernel ``_nmax_vec`` works in float64 in place, bit for bit as
its int64 form did.

``reference_nmax_vec`` below is a frozen copy of the kernel that stepped its
counts in int64 and converted them to float64 for every test of the
predicate.  The in-place kernel keeps the counts in one float64 buffer,
performs the same float64 operations on each entry with commuted operands,
and converts to int64 once.  Both must give the same int64 counts in the four
call shapes of the program, and the same refusals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenbox.bounds import a1_lower_bound
from eigenbox.spectrum import (
    COUNT_EPS,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    UNIT_CUBE,
    _MAX_STEPS,
    _NMAX_LIMIT,
    _nmax_vec,
    _unresolved,
)


def reference_nmax_vec(c, q, lam_eff):
    guess = np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q, 0.0))
    if guess.max() * len(c) > _NMAX_LIMIT:
        raise _unresolved(lam_eff)
    g = guess.astype(np.int64)
    for _ in range(_MAX_STEPS):
        t = (g + 1).astype(np.float64)
        ok = PI_SQUARED * (c + (t * t) * q) <= lam_eff
        if not np.count_nonzero(ok):
            break
        g += ok.astype(np.int64)
    else:
        raise _unresolved(lam_eff)
    for _ in range(_MAX_STEPS):
        t = g.astype(np.float64)
        bad = (g > 0) & (PI_SQUARED * (c + (t * t) * q) > lam_eff)
        if not np.count_nonzero(bad):
            break
        g -= bad.astype(np.int64)
    else:
        raise _unresolved(lam_eff)
    return g


def outcome(kernel, *args):
    try:
        g = kernel(*args)
    except ResourceLimitError as err:
        return "refused", str(err)
    return g.dtype, g.shape, g.tolist()


def assert_same(*args):
    want = outcome(reference_nmax_vec, *args)
    assert outcome(_nmax_vec, *args) == want
    assert want[0] == "refused" or want[0] == np.int64
    return want


def on_edge(q, lam_eff, n):
    """A c whose point n lies exactly on ``lam_eff``: pi^2 * (c + (n*n)*q)
    == lam_eff, searched a few ulps around the exact solution; None if no c
    there hits it."""
    c = lam_eff / PI_SQUARED - float(n * n) * q
    for _ in range(8):
        c = np.nextafter(c, -math.inf)
    for _ in range(17):
        if c >= 0.0 and PI_SQUARED * (c + float(n * n) * q) == lam_eff:
            return float(c)
        c = np.nextafter(c, math.inf)
    return None


@st.composite
def boxes(draw):
    """Boxes of the search domain, two flat ones and the cube."""
    if draw(st.booleans()):
        return draw(st.sampled_from(
            [Cuboid.from_sides(0.2, 0.5), Cuboid.from_sides(0.05, 1.0), UNIT_CUBE]))
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


@st.composite
def columns(draw, lam):
    """c = i1^2*q1 + i2^2*q2 of columns of a box, some past the edge ``lam``
    (count 0), some with a point exactly on lam(1 + COUNT_EPS); with q3."""
    cuboid = draw(boxes())
    q1, q2, q3 = cuboid.inv_sq
    reach = int(math.sqrt(lam / PI_SQUARED / q1)) + 3
    pairs = draw(st.lists(st.tuples(st.integers(1, reach), st.integers(1, 3 * reach)),
                          min_size=1, max_size=40))
    c = [float(i1 * i1) * q1 + float(i2 * i2) * q2 for i1, i2 in pairs]
    lam_eff = lam * (1.0 + COUNT_EPS)
    for n in draw(st.lists(st.integers(1, 400), max_size=4)):
        c.append(on_edge(q3, lam_eff, n) or 0.0)
    return np.array(draw(st.permutations(c))), q3


lams = st.one_of(st.just(0.0), st.floats(0.0, 2e5), st.floats(2e5, 1e9))


@settings(max_examples=150)
@given(lam=lams, data=st.data())
def test_scalar_edge(lam, data):
    c, q3 = data.draw(columns(lam))
    assert_same(c, q3, lam * (1.0 + COUNT_EPS))


@settings(max_examples=150)
@given(lam=lams, data=st.data())
def test_column_of_edges(lam, data):
    # counts_upto: one row of counts per edge, the largest edge anywhere.
    c, q3 = data.draw(columns(lam))
    others = data.draw(st.lists(st.floats(0.0, lam), max_size=5))
    edges = data.draw(st.permutations([lam, *others]))
    assert_same(c, q3, (np.array(edges) * (1.0 + COUNT_EPS))[:, None])


@settings(max_examples=150)
@given(lam=lams, data=st.data())
def test_per_entry_q_and_edges(lam, data):
    # lattice._count_pieces: the entries of several families in one run.
    c, q3 = data.draw(columns(lam))
    scale = data.draw(st.lists(st.floats(0.25, 4.0), min_size=len(c), max_size=len(c)))
    drop = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(c), max_size=len(c)))
    q = q3 * np.array(scale)
    lam_eff = lam * (1.0 + COUNT_EPS) * (1.0 - np.array(drop))
    assert_same(c, q, lam_eff)


@settings(max_examples=150)
@given(lam=lams, data=st.data())
def test_band_edges_per_entry(lam, data):
    # _count_ragged: a (2, n) array of (hi, lo) edges, each entry at its band's.
    c, q3 = data.draw(columns(lam))
    lo = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(c), max_size=len(c)))
    hi_eff = np.full(len(c), lam * (1.0 + COUNT_EPS))
    q = np.full(len(c), q3)
    assert_same(c, q, np.array((hi_eff, hi_eff * np.array(lo))))


@pytest.mark.parametrize("cuboid", [Cuboid.from_sides(0.7, 0.9), Cuboid.from_sides(0.05, 1.0), UNIT_CUBE])
def test_points_exactly_on_the_edge(cuboid):
    _, _, q3 = cuboid.inv_sq
    lam_eff = 5000.0 * (1.0 + COUNT_EPS)
    found = {n: on_edge(q3, lam_eff, n) for n in range(1, 30)}
    hits = [n for n, c in found.items() if c is not None]
    assert len(hits) >= 5
    c = np.array([found[n] for n in hits])
    assert assert_same(c, q3, lam_eff)[2] == hits
    # One ulp below the edge each point n drops out.
    below = np.nextafter(lam_eff, 0.0)
    assert assert_same(c, q3, below)[2] == [n - 1 for n in hits]


def test_corrections_near_the_edge():
    # Entries within 64 ulps of a point on the edge: the sqrt guess falls
    # short of some counts and overshoots others, so both corrections run.
    short = over = 0
    for cuboid in (Cuboid.from_sides(0.7, 0.9), Cuboid.from_sides(0.2, 0.5), UNIT_CUBE):
        q3 = cuboid.inv_sq[2]
        for lam in (1e3, 5e3, 5e4):
            lam_eff = lam * (1.0 + COUNT_EPS)
            c = []
            for n in range(1, 40):
                exact = lam_eff / PI_SQUARED - float(n * n) * q3
                if exact >= 0.0:
                    c += [exact + k * math.ulp(exact) for k in range(-64, 65)]
            c = np.array(c)
            guess = np.floor(np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q3, 0.0)))
            counts = np.array(assert_same(c, q3, lam_eff)[2])
            assert assert_same(c, np.full(len(c), q3), np.full(len(c), lam_eff))[2] == counts.tolist()
            short += int((counts > guess).sum())
            over += int((counts < guess).sum())
    assert short > 0 and over > 0


def test_an_overshot_guess_of_one_steps_down_to_zero():
    # Where c is large beside q, lam_eff / pi^2 - c rounds so that the guess
    # is 1 while point 1 lies above the edge: the count steps down to 0.
    entries = []
    for lam in np.linspace(100.0, 1e4, 100):
        lam_eff = lam * (1.0 + COUNT_EPS)
        for q in (1.0, 0.5, 2.0, 0.3):
            exact = lam_eff / PI_SQUARED - q
            near = np.array([exact + k * math.ulp(exact) for k in range(-64, 65)])
            guess = np.floor(np.sqrt(np.maximum((lam_eff / PI_SQUARED - near) / q, 0.0)))
            over = near[(guess == 1.0) & (reference_nmax_vec(near, q, lam_eff) == 0)]
            if len(over):
                assert assert_same(over, q, lam_eff)[2] == [0] * len(over)
                entries += [(c, q, lam_eff) for c in over.tolist()]
    assert len(entries) > 10
    c, q, lam_eff = (np.array(col) for col in zip(*entries))
    assert assert_same(c, q, lam_eff)[2] == [0] * len(c)


def test_refusals_of_the_limit_tests():
    # The kernel inputs of tests/test_limits.py: a line past 2^53, and the
    # guard on the largest guess times the entries wherever it stands.
    assert assert_same(np.array([0.0, 1.0]), 1e-40, 1e3)[0] == "refused"
    small, large = math.pi**2 * 4.5, math.pi**2 * 2.0**102
    c = np.zeros(8)
    for rows in ([small, large], [large, small], [small, large, small]):
        assert assert_same(c, 1.0, np.array(rows)[:, None])[0] == "refused"
    for at in range(len(c)):
        lam = np.full(len(c), small)
        lam[at] = large
        assert assert_same(c, 1.0, lam)[0] == "refused"
    accepted = assert_same(c, 1.0, np.array([[small], [math.pi**2 * 2.0**98]]))
    assert accepted[2] == [[2] * 8, [2**49] * 8]


@pytest.mark.parametrize("q", [1e-14, 1e-16, 1e-18])
def test_refuses_a_unit_step_below_rounding(q):
    # A guess well inside the 2^53 bound whose unit steps move c + n^2 q by
    # less than its rounding: the correction does not end in _MAX_STEPS.
    c = np.array([1e10, 1e10 * 1.0000001])
    lam_eff = PI_SQUARED * 1e10 * (1.0 + 1e-13)
    assert np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q, 0.0)).max() * len(c) < _NMAX_LIMIT
    assert assert_same(c, q, lam_eff)[0] == "refused"


def test_a_single_count_at_2_to_53_is_refused():
    # The one input where the kernels part: a single entry whose guess is
    # 2^53 exactly passes the guard.  The int64 kernel stepped to 2^53 + 1,
    # a count the float64 predicate cannot tell from 2^53; in float64 that
    # step does not move the count, so the in-place kernel refuses it.
    lam_eff = np.nextafter(PI_SQUARED * 2.0**106, math.inf)
    assert reference_nmax_vec(np.zeros(1), 1.0, lam_eff).tolist() == [2**53 + 1]
    with pytest.raises(ResourceLimitError):
        _nmax_vec(np.zeros(1), 1.0, lam_eff)
