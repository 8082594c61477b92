import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eigenbox.lattice import (
    count_bundle,
    count_full,
    count_plane,
    divisor_count,
    gauss_sphere_count,
    r2,
    r2_batch,
    r3,
)
from eigenbox.spectrum import COUNT_EPS, PI_SQUARED, Cuboid, UNIT_CUBE, count_upto

from conftest import pool_cuboids
from latticeoracle import cube_multiplicity, sphere_counts_upto

PI2 = PI_SQUARED


def brute_full(cuboid, lam):
    q1, q2, q3 = cuboid.inv_sq
    lam_eff = lam * (1.0 + COUNT_EPS)
    bound = int(math.sqrt(lam_eff / PI2 / min(q1, q2, q3))) + 2
    total = 0
    for x1 in range(-bound, bound + 1):
        for x2 in range(-bound, bound + 1):
            for x3 in range(-bound, bound + 1):
                v = PI2 * ((x1 * x1) * q1 + (x2 * x2) * q2 + (x3 * x3) * q3)
                if v <= lam_eff:
                    total += 1
    return total


def brute_plane(cuboid, lam, axis):
    q = cuboid.inv_sq
    pairs = {1: (q[1], q[2]), 2: (q[0], q[2]), 3: (q[0], q[1])}[axis]
    lam_eff = lam * (1.0 + COUNT_EPS)
    bound = int(math.sqrt(lam_eff / PI2 / min(pairs))) + 2
    total = 0
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            if PI2 * ((u * u) * pairs[0] + (v * v) * pairs[1]) <= lam_eff:
                total += 1
    return total


def brute_r2(n):
    total = 0
    bound = math.isqrt(n)
    for x in range(-bound, bound + 1):
        rem = n - x * x
        s = math.isqrt(rem)
        if s * s == rem:
            total += 1 if s == 0 else 2
    return total


def brute_r3(d):
    total = 0
    bound = math.isqrt(d)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            rem = d - x * x - y * y
            if rem < 0:
                continue
            s = math.isqrt(rem)
            if s * s == rem:
                total += 1 if s == 0 else 2
    return total


class TestCountFull:
    def test_cube_examples(self):
        assert count_full(UNIT_CUBE, PI2) == 7
        assert count_full(UNIT_CUBE, 3 * PI2) == 27
        assert count_full(UNIT_CUBE, 0.0) == 1

    def test_odd_and_symmetric(self, cuboid_pool):
        rng = random.Random(11)
        for c in cuboid_pool:
            for _ in range(4):
                lam = rng.uniform(0.0, 800.0)
                t = count_full(c, lam)
                assert t % 2 == 1
                assert t == brute_full(c, lam)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_full(UNIT_CUBE, -1.0)


class TestCountPlane:
    def test_examples(self):
        assert count_plane(UNIT_CUBE, PI2, 1) == 5
        assert count_plane(UNIT_CUBE, 0.0, 2) == 1
        assert count_plane(UNIT_CUBE, 2 * PI2, 3) == 9

    def test_matches_brute_force(self, cuboid_pool):
        rng = random.Random(13)
        for c in cuboid_pool:
            for axis in (1, 2, 3):
                lam = rng.uniform(0.0, 2000.0)
                assert count_plane(c, lam, axis) == brute_plane(c, lam, axis)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            count_plane(UNIT_CUBE, 1.0, 0)


class TestCountBundle:
    def test_cube_at_3pi2(self):
        b = count_bundle(UNIT_CUBE, 3 * PI2)
        assert (b.n, b.t) == (1, 27)
        assert (b.t_x1, b.t_x2, b.t_x3) == (9, 9, 9)
        assert (b.tp_x1, b.tp_x2, b.tp_x3) == (1, 1, 1)
        assert (b.f1, b.f2, b.f3) == (1, 1, 1)
        assert 27 == 8 + 12 + 6 + 1
        assert b.consistent()

    def test_lambda_zero(self, cuboid_pool):
        for c in cuboid_pool:
            b = count_bundle(c, 0.0)
            assert (b.n, b.t) == (0, 1)
            assert (b.t_x1, b.tp_x1, b.f1) == (1, 0, 0)
            assert b.consistent()

    def test_flat_box_first_eigenvalue(self):
        b = count_bundle(Cuboid.from_sides(0.5, 1.0), 5.25 * PI2)
        assert b.n == 1
        assert b.consistent()

    def test_identity_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(150):
            a1 = rng.uniform(0.056, 1.0)
            a2 = rng.uniform(a1, math.sqrt(1.0 / a1))
            c = Cuboid.from_sides(a1, a2)
            lam = rng.uniform(0.0, 3000.0)
            b = count_bundle(c, lam)
            assert b.octant_identity_residual() == 0
            assert b.plane_identity_residuals() == (0, 0, 0)
            assert b.n_from_decomposition() == b.n
            assert b.n == count_upto(c, lam)

    @given(lam=st.floats(0.0, 500.0), seed=st.integers(0, 5))
    @settings(max_examples=40)
    def test_identity_property(self, lam, seed):
        b = count_bundle(pool_cuboids()[seed], lam)
        assert b.consistent()


class TestGaussCounts:
    def test_sphere_examples(self):
        assert gauss_sphere_count(0) == 1
        assert gauss_sphere_count(1) == 7
        # pinned by the brute-force enumeration below
        assert gauss_sphere_count(10) == 4169

    def test_sphere_brute_force_oracle(self):
        for radius in (2, 3, 10):
            count = sum(
                1
                for x in range(-radius, radius + 1)
                for y in range(-radius, radius + 1)
                for z in range(-radius, radius + 1)
                if x * x + y * y + z * z <= radius * radius
            )
            assert gauss_sphere_count(radius) == count

    def test_float_radius_roundtrip(self):
        for m in (2, 3, 5, 7, 10, 48, 99):
            assert gauss_sphere_count(math.sqrt(m)) == gauss_sphere_count_int(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gauss_sphere_count(-1.0)


def gauss_sphere_count_int(m):
    return sum(brute_r3(d) for d in range(0, m + 1))


class TestR2:
    def test_examples(self):
        assert r2(0) == 1
        assert r2(1) == 4
        assert r2(3) == 0
        assert r2(25) == 12

    def test_matches_brute_force(self):
        for n in range(0, 1500):
            assert r2(n) == brute_r2(n)

    def test_batch_matches_scalar(self):
        batch = r2_batch(3000)
        for n in range(0, 3001):
            assert batch[n] == r2(n)

    def test_character_sum_form(self):
        # explicit odd-divisor character sum as an independent formulation
        for n in range(1, 400):
            total = 0
            for d in range(1, n + 1, 2):
                if n % d == 0:
                    total += 1 if d % 4 == 1 else -1
            assert r2(n) == 4 * total

    def test_divisor_bound(self):
        for n in range(1, 2000):
            assert r2(n) <= 4 * divisor_count(n)


class TestR3:
    def test_examples(self):
        assert r3(0) == 1
        assert r3(1) == 6
        assert r3(6) == 24

    def test_matches_brute_force(self):
        for d in range(0, 300):
            assert r3(d) == brute_r3(d)

    def test_cumulative_matches_sphere_count(self):
        cum = 0
        spheres = sphere_counts_upto(400)
        for m in range(0, 401):
            cum += r3(m)
            assert cum == spheres[m]
        for m in (1, 7, 30, 120, 400):
            assert int(spheres[m]) == gauss_sphere_count(math.sqrt(m))

    def test_octant_decomposition(self):
        # sign bookkeeping: full count = 8*octant + 12*positive pairs + 6*axis
        for d in range(1, 200):
            octant = cube_multiplicity(d) if d >= 3 else 0
            pairs = sum(
                1
                for i in range(1, math.isqrt(d) + 1)
                for j in range(1, math.isqrt(d) + 1)
                if i * i + j * j == d
            )
            s = math.isqrt(d)
            on_axis = 6 if s * s == d else 0
            assert r3(d) == 8 * octant + 12 * pairs + on_axis


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count(1) == 1
        assert divisor_count(12) == 6
        assert divisor_count(97) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisor_count(0)

    @given(n=st.integers(1, 100000))
    @settings(max_examples=80)
    def test_matches_direct_listing(self, n):
        assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)


class TestCubeMultiplicity:
    def test_examples(self):
        assert cube_multiplicity(3) == 1
        assert cube_multiplicity(6) == 3
        assert cube_multiplicity(9) == 3

    def test_brute_force(self):
        for m in range(1, 300):
            expected = sum(
                1
                for i in range(1, math.isqrt(m) + 1)
                for j in range(1, math.isqrt(m) + 1)
                for l in range(1, math.isqrt(m) + 1)
                if i * i + j * j + l * l == m
            )
            assert cube_multiplicity(m) == expected

    def test_projection_bound(self):
        # octant sphere count <= first-quadrant disc count <= pi*m/4
        for m in range(3, 2000, 7):
            quadrant = sum(
                math.isqrt(m - i * i) for i in range(1, math.isqrt(m) + 1)
            )
            assert cube_multiplicity(m) <= quadrant
            assert quadrant <= math.pi * m / 4.0
