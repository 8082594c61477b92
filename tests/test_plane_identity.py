"""The plane identities compare two enumerations of each quadrant.

``count_plane`` sums the lines of constant v and ``_quadrant_count`` the
lines of constant u, so a fault in either family shows as a nonzero plane
residual and ``consistent()`` fails.
"""

import random

import pytest

from eigenbox import lattice
from eigenbox.lattice import count_bundle, count_plane
from eigenbox.spectrum import DEFAULT_CANDIDATE_CAP, Cuboid, ResourceLimitError

from test_blocked_counts import ref_plane
from test_lattice import brute_plane

BOX = Cuboid.from_sides(0.7, 0.9)
LAM = 2000.0


def drop_last_line(family):
    """A _line_sums that skips the last line of each v line family (family
    "v", qu < qv, the shorter side's q second) or of each u line family
    (family "u")."""
    line_sums = lattice._line_sums

    def faulty(lines):
        def hit(qu, qv):
            return (qu < qv) if family == "v" else (qu > qv)

        return line_sums(
            [(qu, qv, lam_eff, n - 1 if hit(qu, qv) and n > 0 else n) for qu, qv, lam_eff, n in lines]
        )

    return faulty


def test_sound_counts_are_consistent():
    bundle = count_bundle(BOX, LAM)
    assert bundle.plane_identity_residuals() == (0, 0, 0)
    assert bundle.consistent()


@pytest.mark.parametrize("family", ["v", "u"])
def test_a_fault_in_one_line_family_breaks_the_plane_identities(monkeypatch, family):
    monkeypatch.setattr(lattice, "_line_sums", drop_last_line(family))
    bundle = count_bundle(BOX, LAM)
    residuals = bundle.plane_identity_residuals()
    # A dropped line held points off the axes, 4 of them per point counted.
    assert all(r != 0 and r % 4 == 0 for r in residuals)
    assert (min(residuals) > 0) == (family == "u")
    assert not bundle.consistent()


def test_plane_counts_over_v_lines_equal_the_u_line_sums():
    rng = random.Random(13)
    for _ in range(200):
        a1 = rng.uniform(0.06, 1.0)
        a2 = rng.uniform(a1, a1**-0.5)
        box = Cuboid.from_sides(a1, a2)
        lam = rng.uniform(0.0, 2e4)
        lam_eff = lam * (1.0 + lattice.COUNT_EPS)
        for axis in (1, 2, 3):
            qu, qv = lattice._axis_pairs(box.inv_sq, axis)
            assert count_plane(box, lam, axis) == ref_plane(qu, qv, lam_eff)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_plane_counts_equal_brute_force_on_a_thin_box(axis):
    box = Cuboid.from_sides(0.1, 0.3)
    for lam in (0.0, 50.0, 1000.0, 4000.0):
        assert count_plane(box, lam, axis) == brute_plane(box, lam, axis)


def test_more_v_lines_than_the_cap_are_refused():
    # a1 = a2 = 1e-4 and a3 = 1e8: the (x1, x3) plane has 5 lines of
    # constant x1 of up to 3.5e12 points, so about 1.7e12 lines of constant
    # x3 hold a point with x1 >= 1; the (x1, x2) plane is a disc of 13.
    box = Cuboid.from_sides(1e-4, 1e-4)
    lam = 4e9
    assert count_plane(box, lam, 3) == brute_plane(box, lam, 3) == 13
    with pytest.raises(ResourceLimitError, match=str(DEFAULT_CANDIDATE_CAP)):
        count_plane(box, lam, 2)
    with pytest.raises(ResourceLimitError):
        count_bundle(box, lam)
