"""``count_bundles`` counts many boxes in two ragged passes.

The references below are the per-box ``count_full``, ``_line_sum``,
``count_plane``, ``_quadrant_count`` and ``count_bundle`` copied from the
code before the boxes were batched: each box takes its own blocked
full-lattice count, and each line family its own kernel calls (the scalar
kernel for a family of at most 24 lines).  The batched passes must give the
same bundles wherever the references answer, and refuse where they refuse.
"""

import math
import random

import numpy as np
import pytest

from eigenbox import lattice, suites
from eigenbox.bounds import a1_lower_bound
from eigenbox.lattice import CountBundle, count_bundle, count_bundles, count_full, count_plane
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    ResourceLimitError,
    _BLOCK,
    _block_columns,
    _nmax_scalar,
    _nmax_vec,
    count_upto,
)

# ---------------------------------------------------------------------------
# Reference: one box, one line family at a time.
# ---------------------------------------------------------------------------

REF_VECTOR_MIN = 24


def ref_count_full(cuboid, lam):
    lam_eff = lattice._check_lambda(lam, full_lattice=cuboid)
    q1, q2, q3 = cuboid.inv_sq
    top = _nmax_scalar(0.0, q1, lam_eff)
    total = 0
    x1 = 0
    while x1 <= top:
        c1 = float(x1 * x1) * q1
        width = _nmax_scalar(c1, q2, lam_eff) + 1
        rows = max(1, min(_block_columns(c1, q3, lam_eff) // width, top + 1 - x1))
        t1 = np.arange(x1, x1 + rows, dtype=np.float64)
        row_c = ((t1 * t1) * q1)[:, None]
        row_weight = np.where(t1 == 0.0, 1, 2)
        step = _BLOCK // rows
        for lo in range(0, width, step):
            t2 = np.arange(lo, min(lo + step, width), dtype=np.float64)
            c = row_c + (t2 * t2) * q2
            g = _nmax_vec(c.ravel(), q3, lam_eff).reshape(c.shape)
            points = np.where(PI_SQUARED * c <= lam_eff, 2 * g + 1, 0)
            total += int(row_weight @ points @ np.where(t2 == 0.0, 1, 2))
        x1 += rows
    return total


def ref_line_sum(qu, qv, lam_eff, n):
    if n <= REF_VECTOR_MIN:
        return sum(_nmax_scalar(float(u * u) * qu, qv, lam_eff) for u in range(1, n + 1))
    total = 0
    for lo in range(1, n + 1, _BLOCK):
        u = np.arange(lo, min(lo + _BLOCK, n + 1), dtype=np.float64)
        total += int(_nmax_vec((u * u) * qu, qv, lam_eff).sum())
    return total


def ref_count_plane(cuboid, lam, axis):
    lam_eff = lattice._check_lambda(lam)
    qu, qv = lattice._axis_pairs(cuboid.inv_sq, axis)
    m = _nmax_scalar(qu, qv, lam_eff)
    if m > DEFAULT_CANDIDATE_CAP:
        raise ResourceLimitError(
            f"the plane count at lambda={lam:.6g} sums {m} lines, "
            f"more than the candidate cap {DEFAULT_CANDIDATE_CAP}"
        )
    return (
        2 * _nmax_scalar(0.0, qu, lam_eff) + 1
        + 2 * (2 * ref_line_sum(qv, qu, lam_eff, m) + _nmax_scalar(0.0, qv, lam_eff))
    )


def ref_quadrant_count(qu, qv, lam_eff):
    return ref_line_sum(qu, qv, lam_eff, _nmax_scalar(qv, qu, lam_eff))


def ref_count_bundle(cuboid, lam):
    lam_eff = lattice._check_lambda(lam, full_lattice=cuboid)
    n = count_upto(cuboid, lam)
    inv = cuboid.inv_sq
    planes = [lattice._axis_pairs(inv, axis) for axis in (1, 2, 3)]
    t_x = [ref_count_plane(cuboid, lam, axis) for axis in (1, 2, 3)]
    tp_x = [ref_quadrant_count(qu, qv, lam_eff) for qu, qv in planes]
    floors = [_nmax_scalar(0.0, q, lam_eff) for q in inv]
    return CountBundle(lam, n, ref_count_full(cuboid, lam), *t_x, *tp_x, *floors)


# ---------------------------------------------------------------------------

FLAT = [Cuboid.from_sides(0.2, 0.5), Cuboid.from_sides(0.05, 1.0)]
# (0.05, 1.0, 20) at lambda = 7e6: about 38k full-lattice columns and a v
# line family of about 16.8k lines, each more than _BLOCK.
BIG = (FLAT[1], 7.0e6)


def seeded_pairs(count, seed, lam_max=2.0e4):
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        kind = i % 8
        if kind == 6:
            box = FLAT[i // 8 % 2]
        elif kind == 7:
            box = UNIT_CUBE
        else:
            box = suites.sample_cuboid(rng)
        pairs.append((box, rng.uniform(0.0, lam_max)))
    return pairs


def batched(pairs):
    return count_bundles([c for c, _ in pairs], [lam for _, lam in pairs])


def test_bundles_equal_the_per_box_reference():
    pairs = seeded_pairs(2400, 14)
    assert min(c.a1 for c, _ in pairs) >= min(a1_lower_bound(), FLAT[1].a1)
    assert batched(pairs) == [ref_count_bundle(c, lam) for c, lam in pairs]


def test_zero_and_cube_eigenvalues():
    lams = [0.0] + [PI_SQUARED * m for m in range(1, 120)]
    boxes = [UNIT_CUBE] * len(lams)
    got = count_bundles(boxes, lams)
    assert got == [ref_count_bundle(c, lam) for c, lam in zip(boxes, lams)]
    assert got[0] == CountBundle(0.0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert count_bundles([], []) == []
    assert all(b.consistent() for b in got)


def test_empty_families_mixed_with_full_ones():
    # Below pi^2 (q_u + q_v) a plane holds no line with both coordinates
    # >= 1, so these batches mix families of no lines with long ones.
    box = Cuboid.from_sides(0.7, 0.9)
    pairs = [(box, lam) for lam in (0.0, 30.0, 2.0e4, 1.0, 5.0e3, 0.0, 20.0)]
    assert batched(pairs) == [ref_count_bundle(c, lam) for c, lam in pairs]
    lines = [(4.0, 1.0, 1e3, 0), (4.0, 1.0, 1e3, 3), (1.0, 4.0, 1e4, 0),
             (1.0, 4.0, 1e4, 2 * _BLOCK + 5), (0.5, 0.25, 50.0, 0)]
    assert lattice._line_sums(lines) == [ref_line_sum(*line) for line in lines]


def test_a_big_box_straddles_runs():
    box, lam = BIG
    lam_eff = lam * (1.0 + lattice.COUNT_EPS)
    qu, qv = lattice._axis_pairs(box.inv_sq, 1)
    assert lattice._v_lines(qu, qv, lam, lam_eff)[3] > _BLOCK
    r = math.sqrt(lam) / math.pi
    assert (box.a1 * r + 1) * (box.a2 * r + 1) > 2 * _BLOCK
    small = seeded_pairs(40, 3)
    pairs = small[:20] + [BIG] + small[20:] + [BIG]
    assert batched(pairs) == [ref_count_bundle(c, lam) for c, lam in pairs]


def test_a_permuted_batch_equals_the_per_box_results():
    pairs = seeded_pairs(300, 5) + [BIG]
    expected = [count_bundle(c, lam) for c, lam in pairs]
    order = list(range(len(pairs)))
    random.Random(6).shuffle(order)
    got = batched([pairs[i] for i in order])
    assert got == [expected[i] for i in order]


def test_one_box_counts_equal_the_reference():
    for box, lam in seeded_pairs(200, 8) + [BIG]:
        lam_eff = lam * (1.0 + lattice.COUNT_EPS)
        assert count_full(box, lam) == ref_count_full(box, lam)
        for axis in (1, 2, 3):
            qu, qv = lattice._axis_pairs(box.inv_sq, axis)
            assert count_plane(box, lam, axis) == ref_count_plane(box, lam, axis)
            assert lattice._quadrant_count(qu, qv, lam_eff) == ref_quadrant_count(qu, qv, lam_eff)


def _column_limit(cuboid):
    a, b = cuboid.a1, cuboid.a2
    r = (-(a + b) + math.sqrt((a + b) ** 2 + 4 * a * b * (DEFAULT_CANDIDATE_CAP - 1))) / (2 * a * b)
    return (math.pi * r) ** 2


CAP_INPUTS = [
    (FLAT[1], _column_limit(FLAT[1]) * 1.001),  # the column cap
    (Cuboid.from_sides(1e-4, 1e-4), 4e9),  # the plane's line cap
    (Cuboid.from_sides(1e-4, 1e-4), 1e14),  # a slice past 2^53
    (Cuboid.from_sides(1e-10, 1e-10), 1e3),
    (Cuboid.from_sides(1e-30, 1e-30), 1e3),
    (Cuboid.from_sides(2e-7, 1e-3), 9.87e12),
    (Cuboid.from_sides(1e-9, 100.0), 9.87e10),
    (UNIT_CUBE, 1e12),
    (UNIT_CUBE, -1.0),
    (UNIT_CUBE, math.nan),
    (UNIT_CUBE, math.inf),
]


def _outcome(count, *args):
    try:
        return count(*args)
    except (ResourceLimitError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("box, lam", CAP_INPUTS)
def test_cap_inputs_are_refused_alike(box, lam):
    expected = _outcome(ref_count_bundle, box, lam)
    assert isinstance(expected, tuple)
    assert _outcome(count_bundle, box, lam) == expected
    good = seeded_pairs(2, 1)
    cuboids = [good[0][0], box, good[1][0]]
    lams = [good[0][1], lam, good[1][1]]
    assert _outcome(count_bundles, cuboids, lams) == expected
    assert _outcome(count_full, box, lam) == _outcome(ref_count_full, box, lam)
    for axis in (1, 2, 3):
        assert _outcome(count_plane, box, lam, axis) == _outcome(ref_count_plane, box, lam, axis)


def test_batches_must_pair_boxes_with_lambdas():
    with pytest.raises(ValueError):
        count_bundles([UNIT_CUBE, UNIT_CUBE], [1.0])


def test_a_fault_in_one_box_breaks_only_its_identities(monkeypatch):
    pairs = seeded_pairs(60, 9)
    hit = 17
    hit_eff = pairs[hit][1] * (1.0 + lattice.COUNT_EPS)
    assert sum(lam == pairs[hit][1] for _, lam in pairs) == 1
    line_sums = lattice._line_sums

    def faulty(lines):
        # Drops the last line of each of the hit box's families.
        return line_sums([(qu, qv, e, n - 1 if e == hit_eff and n > 0 else n)
                          for qu, qv, e, n in lines])

    monkeypatch.setattr(lattice, "_line_sums", faulty)
    got = batched(pairs)
    assert [b.consistent() for b in got] == [i != hit for i in range(len(pairs))]
    assert got[hit].plane_identity_residuals() != (0, 0, 0)
