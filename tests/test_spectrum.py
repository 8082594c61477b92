import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox.bounds import a1_lower_bound
from eigenbox.spectrum import (
    COUNT_EPS,
    DEFAULT_CANDIDATE_CAP,
    DEGENERACY_RTOL,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    UNIT_CUBE,
    _band,
    count_upto,
    cube_spectrum_table,
    eigenvalue_of_index,
    kth_eigenvalue,
    spectrum_points,
)

from conftest import pool_cuboids

PI2 = PI_SQUARED


def brute_count(cuboid, lam):
    """Reference counter: direct enumeration with eigenvalue_of_index."""
    lam_eff = lam * (1.0 + COUNT_EPS)
    total = 0
    i1 = 1
    while eigenvalue_of_index(cuboid, i1, 1, 1) <= lam_eff:
        i2 = 1
        while eigenvalue_of_index(cuboid, i1, i2, 1) <= lam_eff:
            i3 = 1
            while eigenvalue_of_index(cuboid, i1, i2, i3) <= lam_eff:
                i3 += 1
            total += i3 - 1
            i2 += 1
        i1 += 1
    return total


def brute_sorted_eigenvalues(cuboid, k):
    """First k eigenvalues by plain enumeration below a growing ceiling."""
    lam = 40.0
    while True:
        vals = []
        lam_eff = lam * (1.0 + COUNT_EPS)
        i1 = 1
        while eigenvalue_of_index(cuboid, i1, 1, 1) <= lam_eff:
            i2 = 1
            while eigenvalue_of_index(cuboid, i1, i2, 1) <= lam_eff:
                i3 = 1
                while True:
                    v = eigenvalue_of_index(cuboid, i1, i2, i3)
                    if v > lam_eff:
                        break
                    vals.append(v)
                    i3 += 1
                i2 += 1
            i1 += 1
        if len(vals) >= k:
            return sorted(vals)[:k]
        lam *= 2.0


def brute_kth_point(cuboid, k):
    """The k-th eigenvalue and the sorted triples within DEGENERACY_RTOL of it.

    Scalar enumeration below a doubling ceiling; the index loops stop at the
    ceiling, so thin boxes get their long index runs.
    """
    lam = eigenvalue_of_index(cuboid, 1, 1, 1)
    while True:
        found = []
        i1 = 1
        while eigenvalue_of_index(cuboid, i1, 1, 1) <= lam:
            i2 = 1
            while eigenvalue_of_index(cuboid, i1, i2, 1) <= lam:
                i3 = 1
                while (v := eigenvalue_of_index(cuboid, i1, i2, i3)) <= lam:
                    found.append((v, (i1, i2, i3)))
                    i3 += 1
                i2 += 1
            i1 += 1
        values = sorted(v for v, _ in found)
        if len(values) >= k and values[k - 1] * (1.0 + DEGENERACY_RTOL) <= lam:
            value = values[k - 1]
            lo, hi = value * (1.0 - DEGENERACY_RTOL), value * (1.0 + DEGENERACY_RTOL)
            return value, tuple(sorted(idx for v, idx in found if lo <= v <= hi))
        lam *= 2.0


@st.composite
def domain_cuboids(draw):
    """Boxes of the optimiser's search domain a1 <= a2 <= a3."""
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


class TestCuboid:
    def test_from_sides_sorts_and_renormalises(self):
        c = Cuboid.from_sides(2.0, 1.0)
        assert c.sides == (0.5, 1.0, 2.0)
        assert abs(c.a1 * c.a2 * c.a3 - 1.0) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Cuboid.from_sides(0.0, 1.0)
        with pytest.raises(ValueError):
            Cuboid.from_sides(-1.0, 1.0)

    def test_rejects_bad_triple(self):
        with pytest.raises(ValueError):
            Cuboid(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            Cuboid(0.5, 1.0, 2.5)

    @given(
        a1=st.floats(0.06, 1.0),
        a2mix=st.floats(0.0, 1.0),
    )
    def test_construction_invariants(self, a1, a2mix):
        lo, hi = a1, math.sqrt(1.0 / a1)
        a2 = lo + a2mix * (hi - lo)
        c = Cuboid.from_sides(a1, a2)
        assert c.a1 <= c.a2 <= c.a3
        assert abs(c.a1 * c.a2 * c.a3 - 1.0) <= 1e-12
        assert c.a1 > 0


class TestEigenvalueOfIndex:
    def test_cube_lowest_mode(self):
        assert eigenvalue_of_index(UNIT_CUBE, 1, 1, 1) == pytest.approx(3 * PI2, rel=1e-15)

    def test_cube_112(self):
        assert eigenvalue_of_index(UNIT_CUBE, 1, 1, 2) == pytest.approx(6 * PI2, rel=1e-15)

    def test_flat_box(self):
        c = Cuboid.from_sides(0.5, 1.0)
        assert eigenvalue_of_index(c, 1, 1, 1) == pytest.approx(5.25 * PI2, rel=1e-15)

    def test_rejects_bad_indices(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 1, 1)]:
            with pytest.raises(ValueError):
                eigenvalue_of_index(UNIT_CUBE, *bad)

    @given(
        i1=st.integers(1, 40),
        i2=st.integers(1, 40),
        i3=st.integers(1, 40),
        seed=st.integers(0, 5),
    )
    def test_strictly_increasing_in_each_index(self, i1, i2, i3, seed):
        c = pool_cuboids()[seed]
        base = eigenvalue_of_index(c, i1, i2, i3)
        assert eigenvalue_of_index(c, i1 + 1, i2, i3) > base
        assert eigenvalue_of_index(c, i1, i2 + 1, i3) > base
        assert eigenvalue_of_index(c, i1, i2, i3 + 1) > base


class TestCountUpto:
    def test_cube_examples(self):
        assert count_upto(UNIT_CUBE, 3 * PI2) == 1
        assert count_upto(UNIT_CUBE, 6 * PI2) == 4
        assert count_upto(UNIT_CUBE, 0.0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_upto(UNIT_CUBE, -1.0)

    def test_matches_brute_force_on_pool(self, cuboid_pool):
        rng = np.random.default_rng(7)
        for c in cuboid_pool:
            lam1 = eigenvalue_of_index(c, 1, 1, 1)
            for lam in rng.uniform(0.0, 60.0 * lam1, size=8):
                assert count_upto(c, float(lam)) == brute_count(c, float(lam))

    def test_counts_at_exact_eigenvalues(self, cuboid_pool):
        # boundary inclusivity: counting exactly at an eigenvalue includes it
        for c in cuboid_pool:
            for idx in [(1, 1, 1), (1, 2, 3), (2, 2, 2)]:
                lam = eigenvalue_of_index(c, *idx)
                assert count_upto(c, lam) == brute_count(c, lam)

    @given(lam=st.floats(0.0, 5000.0), scale=st.floats(1.0, 1.5), seed=st.integers(0, 5))
    @settings(max_examples=60)
    def test_nondecreasing_in_lambda(self, lam, scale, seed):
        c = pool_cuboids()[seed]
        assert count_upto(c, lam * scale) >= count_upto(c, lam)

    def test_cube_integer_consistency(self):
        # the unit-cube path must agree with pure integer arithmetic
        for m in [3, 6, 9, 11, 14, 100, 1013]:
            lam = PI2 * m
            expected = sum(
                1
                for i1 in range(1, math.isqrt(m) + 1)
                for i2 in range(1, math.isqrt(m) + 1)
                for i3 in range(1, math.isqrt(m) + 1)
                if i1 * i1 + i2 * i2 + i3 * i3 <= m
            )
            assert count_upto(UNIT_CUBE, lam) == expected

    def test_weyl_envelope(self, cuboid_pool):
        for c in cuboid_pool:
            lam1 = eigenvalue_of_index(c, 1, 1, 1)
            for factor in (100.0, 178.0, 316.0):
                lam = factor * lam1
                ratio = count_upto(c, lam) * 6.0 * PI2 / lam**1.5
                assert 0.5 <= ratio <= 1.5


class TestKthEigenvalue:
    def test_cube_k1(self):
        p = kth_eigenvalue(UNIT_CUBE, 1)
        assert p.value == pytest.approx(3 * PI2, rel=1e-15)
        assert p.multiplicity == 1
        assert p.indices == ((1, 1, 1),)

    def test_cube_k2(self):
        p = kth_eigenvalue(UNIT_CUBE, 2)
        assert p.value == pytest.approx(6 * PI2, rel=1e-15)
        assert p.multiplicity == 3
        assert p.indices == ((1, 1, 2), (1, 2, 1), (2, 1, 1))

    def test_cube_k5(self):
        assert kth_eigenvalue(UNIT_CUBE, 5).value == pytest.approx(9 * PI2, rel=1e-15)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kth_eigenvalue(UNIT_CUBE, 0)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            kth_eigenvalue(Cuboid.from_sides(0.9, 1.0), 2000, candidate_cap=100)
        # a thin box: the cap stops the first slice, before any band array
        with pytest.raises(ResourceLimitError):
            kth_eigenvalue(Cuboid.from_sides(1e-3, 1.0), 1, candidate_cap=100_000)

    def test_band_missing_above_widens_to_the_margin_of_one(self):
        # Off the search domain, lambda_1 of this box lies 76 % above the Weyl
        # guess, past the first band's 0.75 margin.  The next band runs to
        # twice the guess (13,412 points), not to 2.5 times it (41,228), so
        # a cap of 13,412 holds it.
        box = Cuboid.from_sides(0.02, 50.0**0.5)
        p = kth_eigenvalue(box, 1, candidate_cap=13_412)
        assert p.value == pytest.approx(PI2 * sum(box.inv_sq), rel=1e-15)
        assert p.indices == ((1, 1, 1),)
        with pytest.raises(ResourceLimitError, match=r"^band \(0, "):
            kth_eigenvalue(box, 1, candidate_cap=13_411)

    @given(cuboid=domain_cuboids(), k=st.integers(1, 300))
    @example(cuboid=UNIT_CUBE, k=2)
    @example(cuboid=UNIT_CUBE, k=300)
    @example(cuboid=Cuboid.from_sides(0.5, 1.0), k=5)
    @example(cuboid=Cuboid.from_sides(0.5, 1.0), k=250)
    @settings(max_examples=60)
    def test_equals_scalar_brute_force_exactly(self, cuboid, k):
        value, indices = brute_kth_point(cuboid, k)
        p = kth_eigenvalue(cuboid, k)
        assert p.value == value
        assert p.indices == indices

    def test_matches_brute_force(self, cuboid_pool):
        for c in cuboid_pool:
            expected = brute_sorted_eigenvalues(c, 30)
            for k in (1, 2, 3, 7, 15, 30):
                assert kth_eigenvalue(c, k).value == pytest.approx(
                    expected[k - 1], rel=1e-13
                )

    def test_value_matches_every_index(self, cuboid_pool):
        for c in cuboid_pool:
            for k in (1, 4, 11, 26):
                p = kth_eigenvalue(c, k)
                assert p.multiplicity >= 1
                for idx in p.indices:
                    assert eigenvalue_of_index(c, *idx) == pytest.approx(
                        p.value, rel=1e-12
                    )

    def test_degenerate_cluster_across_index_shapes(self):
        # on (0.5, 1, 2) the level 9*pi^2 is hit by two unrelated triples
        c = Cuboid.from_sides(0.5, 1.0)
        for k in (5, 6):
            p = kth_eigenvalue(c, k)
            assert p.value == pytest.approx(9 * PI2, rel=1e-15)
            assert p.indices == ((1, 1, 4), (1, 2, 2))

    def test_counting_duality(self, cuboid_pool):
        ks = (1, 2, 17, 100, 1203, 5000)
        for c in cuboid_pool[:3]:
            for k in ks:
                p = kth_eigenvalue(c, k)
                assert count_upto(c, p.value) >= k
                below = p.value * (1.0 - 10.0 * COUNT_EPS)
                assert count_upto(c, below) < k

    def test_nondecreasing_in_k(self, cuboid_pool):
        for c in cuboid_pool:
            vals = brute_sorted_eigenvalues(c, 40)
            assert vals == sorted(vals)
            points = spectrum_points(c, 40)
            for a, b in zip(points, points[1:]):
                assert b.value > a.value


class TestSpectrumPoints:
    def test_cube_first_points(self):
        points = spectrum_points(UNIT_CUBE, 5)
        assert [round(p.value / PI2) for p in points] == [3, 6, 9]
        assert [p.multiplicity for p in points] == [1, 3, 3]

    def test_multiplicities_cover_k(self, cuboid_pool):
        for c in cuboid_pool:
            points = spectrum_points(c, 25)
            assert sum(p.multiplicity for p in points) >= 25


class TestCubeSpectrumTable:
    def test_first_levels(self):
        table_m, table_theta, table_count = cube_spectrum_table(8)
        assert list(table_m[1:8]) == [3, 6, 6, 6, 9, 9, 9]
        assert list(table_theta[1:5]) == [1, 3, 3, 3]
        assert list(table_count[1:5]) == [1, 4, 4, 4]

    def test_counts_match_count_upto(self):
        table_m, _, table_count = cube_spectrum_table(200)
        for k in (1, 5, 50, 200):
            assert table_count[k] == count_upto(UNIT_CUBE, PI2 * float(table_m[k]))

    def test_kth_eigenvalue_of_the_cube_is_the_table_bit_for_bit(self):
        # The certified search starts from the k-th value of the cube's band;
        # it must equal the integer table, which takes O(k) memory.
        table_m, _, _ = cube_spectrum_table(3000)
        for k in range(1, 3001):
            value = PI2 * float(table_m[k])
            assert kth_eigenvalue(UNIT_CUBE, k).value == value
            assert _band(UNIT_CUBE, k, DEFAULT_CANDIDATE_CAP, from_zero=False)[2] == value


class TestDomainMonotonicity:
    def test_shrinking_a_side_never_decreases_eigenvalues(self):
        # raw boxes (no volume constraint) exist only here, in test code
        def raw_sorted(sides, k):
            inv = [1.0 / s**2 for s in sides]
            vals = []
            ceiling = PI2 * (k**2) * sum(inv)
            for i1 in range(1, k + 1):
                for i2 in range(1, k + 1):
                    for i3 in range(1, k + 1):
                        v = PI2 * (i1 * i1 * inv[0] + i2 * i2 * inv[1] + i3 * i3 * inv[2])
                        if v <= ceiling:
                            vals.append(v)
            return sorted(vals)[:k]

        base = (0.8, 1.1, 1.6)
        for axis in range(3):
            shrunk = list(base)
            shrunk[axis] *= 0.7
            before = raw_sorted(base, 12)
            after = raw_sorted(tuple(shrunk), 12)
            assert all(b <= a + 1e-12 for b, a in zip(before, after))
