"""Chunked grouping of the sorted band equals the per-point loop it replaced.

``ref_spectrum_points`` below is the per-point loop of ``spectrum_points``
and its ``_indices`` helper, copied from the code before the grouping went
to numpy chunks of ``_GROUP`` values.  Points, values and index tuples must
match it exactly: on domain boxes, at spectrum lengths around the chunk
size, on the cube (whose multiplicities straddle chunk edges) and on
near-degenerate perturbed cubes, where windows chain through a split level.
Each window runs up from its point's first value, so no value is in two
points: against a brute-force spectrum, every row's lambda is within
DEGENERACY_RTOL of lambda_k at each k of its range, and no triple is listed
twice.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox import spectrum
from eigenbox.bounds import a1_lower_bound
from eigenbox.reporting import spectrum_records
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    DEGENERACY_RTOL,
    Cuboid,
    SpectralPoint,
    UNIT_CUBE,
    _GROUP,
    spectrum_points,
)

from test_certify import brute_lowest


def ref_indices(triples):
    return tuple(sorted(zip(*triples.tolist())))


def ref_spectrum_points(cuboid, k_max):
    values, triples, _ = spectrum._band(cuboid, k_max, DEFAULT_CANDIDATE_CAP, from_zero=True)
    # Sorted in place, the band peaks at 41 B a candidate with the order.
    order = values.argsort()
    values.sort()
    points = []
    covered = 0
    while covered < k_max:
        value = float(values[covered])
        start = covered
        covered = int(np.searchsorted(values, value * (1.0 + DEGENERACY_RTOL), side="right"))
        indices = ref_indices(triples.take(order[start:covered], axis=1))
        points.append(SpectralPoint(value=value, indices=indices))
    return points


def assert_same_points(cuboid, k_max):
    points = spectrum_points(cuboid, k_max)
    ref = ref_spectrum_points(cuboid, k_max)
    assert points == ref
    # A numpy scalar would compare equal but pickle and print differently.
    assert all(type(p.value) is float for p in points)
    return points


@st.composite
def domain_boxes(draw):
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


@given(cuboid=domain_boxes(), k_max=st.integers(1, 5000))
@example(cuboid=Cuboid.from_sides(a1_lower_bound(), a1_lower_bound() ** -0.5), k_max=5000)
@example(cuboid=Cuboid.from_sides(0.7, 0.9), k_max=5000)
@settings(max_examples=25)
def test_domain_boxes_equal_reference(cuboid, k_max):
    assert_same_points(cuboid, k_max)


@pytest.mark.parametrize("k_max", [_GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1])
@pytest.mark.parametrize("cuboid", [UNIT_CUBE, Cuboid.from_sides(0.7, 0.9)], ids=["cube", "box"])
def test_chunk_edges_equal_reference(cuboid, k_max):
    assert_same_points(cuboid, k_max)


def test_cube_multiplicities_straddle_chunks():
    points = assert_same_points(UNIT_CUBE, 16_000)
    # A chunk ends at the first point that starts _GROUP values past its
    # first; on the cube most of those points span the edge.
    firsts = np.cumsum([0] + [p.multiplicity for p in points[:-1]])
    assert any(f // _GROUP != (f + p.multiplicity - 1) // _GROUP for f, p in zip(firsts, points))
    assert max(p.multiplicity for p in points) > 1


@pytest.mark.parametrize("eps", [1e-10, 4e-10, 9e-10, 2e-9])
def test_perturbed_cubes_equal_reference(eps):
    # Sides 1/(1+eps), 1, 1+eps: the cube's levels split into values a few
    # eps apart, about DEGENERACY_RTOL, so windows chain through a split
    # level; no point holds a value of the point before.
    cuboid = Cuboid.from_sides(1.0, 1.0 + eps)
    for k_max in (500, 3000):
        points = assert_same_points(cuboid, k_max)
        shared = sum(bool(set(p.indices) & set(q.indices)) for p, q in zip(points, points[1:]))
        assert shared == 0


def assert_rows_are_the_spectrum(cuboid, k_max):
    # Each row's lambda is within DEGENERACY_RTOL of the brute-force lambda_k
    # at every k of its range, up to a few ulps for the rounding of the
    # window's end, and no triple is listed twice.
    points = spectrum_points(cuboid, k_max)
    records = spectrum_records(points, k_max, cuboid.is_cube)
    lowest = brute_lowest(cuboid.sides, k_max).tolist()
    assert [k for ks, *_ in records for k in ks] == list(range(1, k_max + 1))
    wrong = [(k, value) for ks, value, *_ in records for k in ks
             if abs(value - lowest[k - 1]) > DEGENERACY_RTOL * value + 4 * math.ulp(value)]
    assert wrong == []
    triples = [t for p in points for t in p.indices]
    assert len(set(triples)) == len(triples)


@pytest.mark.parametrize("eps", [1e-10, 4e-10, 9e-10, 2e-9])
def test_perturbed_cube_rows_are_the_spectrum(eps):
    cuboid = Cuboid.from_sides(1.0, 1.0 + eps)
    for k_max in (500, 3000):
        assert_rows_are_the_spectrum(cuboid, k_max)


@given(cuboid=domain_boxes(), k_max=st.integers(1, 3000))
@example(cuboid=Cuboid.from_sides(a1_lower_bound(), a1_lower_bound() ** -0.5), k_max=3000)
@example(cuboid=UNIT_CUBE, k_max=3000)
@settings(max_examples=25)
def test_domain_box_rows_are_the_spectrum(cuboid, k_max):
    assert_rows_are_the_spectrum(cuboid, k_max)
