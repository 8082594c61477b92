"""Checks of the brute-force reference against hand-known values.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import math

import pytest

from reference import count_lattice, count_octant, cube_levels, eigenvalue, lowest

PI2 = math.pi**2
CUBE = (1.0, 1.0, 1.0)
# i1^2 + i2^2 + i3^2 over positive triples, ascending with multiplicity:
# 111; 112 x3; 122 x3; 113 x3; 222; 123 x6.
CUBE_LEVELS = [3, 6, 6, 6, 9, 9, 9, 11, 11, 11, 12, 14, 14, 14, 14, 14, 14]


def test_cube_levels_by_hand():
    assert cube_levels(len(CUBE_LEVELS)).tolist() == CUBE_LEVELS


def test_cube_lowest_matches_levels():
    values = lowest(CUBE, len(CUBE_LEVELS))
    assert [v / PI2 for v in values] == pytest.approx(CUBE_LEVELS, rel=1e-15)


def test_cube_counts_by_hand():
    assert count_octant(CUBE, 6.0 * PI2 * (1 + 1e-12)) == 4
    assert count_octant(CUBE, 6.0 * PI2 * (1 - 1e-12)) == 1
    assert count_lattice(CUBE, 0.0) == 1
    # origin, 6 unit vectors, 12 face diagonals
    assert count_lattice(CUBE, 2.0 * PI2 * (1 + 1e-12)) == 19


def test_flat_box_first_eigenvalue():
    sides = (0.5, 1.0, 2.0)
    assert lowest(sides, 1)[0] == pytest.approx(5.25 * PI2, rel=1e-15)
    assert eigenvalue(sides, (1, 1, 1)) == pytest.approx(5.25 * PI2, rel=1e-15)


def test_counts_agree_with_sorted_values():
    sides = (0.7, 0.9, 1.0 / 0.63)
    values = lowest(sides, 500)
    lam = 0.5 * (values[299] + values[300])
    assert count_octant(sides, lam) == 300


def test_lattice_count_weights_signs():
    # On the x3 axis of the box (0.7, 0.9, 1/0.63) the first point is at
    # pi^2 (0.63)^2 ; its two signs and the origin make 3 points.
    sides = (0.7, 0.9, 1.0 / 0.63)
    lam = PI2 * (0.63**2) * 1.0001
    assert count_lattice(sides, lam) == 3
