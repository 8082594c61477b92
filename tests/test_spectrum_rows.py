"""A spectrum's points, records and CSV/JSON bytes, chunk by chunk, equal the
per-point loops they replaced.

``ref_spectrum_points`` and ``ref_spectrum_records`` below are the earlier
``spectrum_points`` (one ``SpectralPoint`` and one ``sorted`` a point) and
``spectrum_records`` (one record a point), copied.  ``ref_csv`` writes the
reference records with ``csv.writer``, which quotes exactly the cells that
hold ``,``, ``"`` or ``\\n`` here (no cell holds a bare ``\\r``), so the CSV
reference does not rest on the writer under test.  Cases: the boxes of the
spectrum benchmark workload, spectrum lengths around the chunk size, the
cube (long multiplicity windows), near-degenerate perturbed cubes (windows
that chain through a split level, none holding a value of another) and a
k_max that cuts a window.
"""

import csv
import io
import random

import numpy as np
import pytest

from eigenbox import spectrum
from eigenbox.reporting import SPECTRUM, spectrum_records
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    DEGENERACY_RTOL,
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    SpectralPoint,
    _GROUP,
    spectrum_points,
)


def ref_spectrum_points(cuboid, k_max):
    values, triples, _ = spectrum._band(cuboid, k_max, DEFAULT_CANDIDATE_CAP, from_zero=True)
    order = values.argsort()
    values.sort()
    points = []
    head = 0
    while head < k_max:
        base, stop = head, min(head + _GROUP, k_max)
        ends = np.searchsorted(
            values, values[base:stop] * (1.0 + DEGENERACY_RTOL), "right"
        ).tolist()
        heads = []
        while head < stop:
            heads.append(head)
            head = ends[head - base]
        tuples = list(zip(*triples.take(order[base:head], axis=1).tolist()))
        for value, start, end in zip(values[heads].tolist(), heads, [*heads[1:], head]):
            points.append(SpectralPoint(value, tuple(sorted(tuples[start - base:end - base]))))
    return points


def ref_spectrum_records(points, k_max, is_cube):
    records = []
    k = 1
    for point in points:
        value, indices = point.value, point.indices
        over_pi2 = value / PI_SQUARED
        ks = range(k, min(k + len(indices), k_max + 1))
        records.append((ks, value, round(over_pi2) if is_cube else over_pi2, len(indices), indices))
        k = ks.stop
    return records


def ref_csv(records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SPECTRUM.columns)
    for ks, value, over_pi2, multiplicity, indices in records:
        cells = ["%.17g" % value,
                 "%d" % over_pi2 if type(over_pi2) is int else "%.17g" % over_pi2,
                 str(multiplicity), ";".join(["%s,%s,%s" % t for t in indices])]
        writer.writerows([str(SPECTRUM.schema), str(k), *cells] for k in ks)
    return out.getvalue()


def assert_same_spectrum(cuboid, k_max):
    points = spectrum_points(cuboid, k_max)
    ref_points = ref_spectrum_points(cuboid, k_max)
    assert points == ref_points
    assert all(type(p.value) is float and type(p.indices) is tuple for p in points)
    assert all(type(t) is tuple for p in points for t in p.indices)
    records = spectrum_records(points, k_max, cuboid.is_cube)
    ref_records = ref_spectrum_records(ref_points, k_max, cuboid.is_cube)
    assert records == ref_records
    assert [tuple(map(type, r)) for r in records] == [tuple(map(type, r)) for r in ref_records]
    assert SPECTRUM.csv(records).encode() == ref_csv(ref_records).encode()
    assert SPECTRUM.json(records).encode() == SPECTRUM.json(ref_records).encode()
    return points, records


def bench_boxes(seed=1):
    """The boxes of the spectrum benchmark workload: three drawn, then the cube."""
    rng = random.Random(seed)
    boxes = []
    for a3, (lo, hi) in ((1.25, (0.65, 0.88)), (1.5, (0.45, 0.8)), (3.0, (0.25, 0.35))):
        a1 = rng.uniform(lo, hi)
        boxes.append((a1, 1.0 / (a1 * a3)))
    return boxes + [(1.0, 1.0)]


@pytest.mark.parametrize("a1, a2", bench_boxes(), ids=repr)
def test_workload_boxes_equal_reference(a1, a2):
    assert_same_spectrum(Cuboid.from_sides(a1, a2), 3000)


@pytest.mark.parametrize("k_max", [1, _GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1])
@pytest.mark.parametrize("cuboid", [UNIT_CUBE, Cuboid.from_sides(0.7, 0.9)], ids=["cube", "box"])
def test_chunk_edges_equal_reference(cuboid, k_max):
    assert_same_spectrum(cuboid, k_max)


def test_cube_at_16000_equals_reference():
    points, records = assert_same_spectrum(UNIT_CUBE, 16_000)
    assert max(p.multiplicity for p in points) > 1
    assert sum(len(ks) for ks, *_ in records) == 16_000


@pytest.mark.parametrize("eps", [1e-10, 4e-10, 9e-10, 2e-9])
def test_perturbed_cubes_equal_reference(eps):
    # Sides 1/(1+eps), 1, 1+eps: windows chain through a split cube level,
    # and none holds a value of the point before.
    cuboid = Cuboid.from_sides(1.0, 1.0 + eps)
    for k_max in (500, 3000):
        points, _ = assert_same_spectrum(cuboid, k_max)
        shared = sum(bool(set(p.indices) & set(q.indices)) for p, q in zip(points, points[1:]))
        assert shared == 0


@pytest.mark.parametrize("k_max", [2, 3, 5, 200])
def test_a_k_max_inside_a_window_equals_reference(k_max):
    # The cube's levels 2 and 3 hold three eigenvalues each, the 200th sits
    # inside a level too: the last record's k range stops at k_max, short of
    # its multiplicity.
    _, records = assert_same_spectrum(UNIT_CUBE, k_max)
    ks, *_, multiplicity, indices = records[-1]
    assert ks.stop == k_max + 1
    assert len(ks) < multiplicity == len(indices)

