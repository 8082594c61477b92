"""``SpectralPoint`` is a frozen dataclass with slots, and behaves as the
frozen dataclass without them did: equality, hashing, repr, immutability and
a pickle round trip, on every Python the package supports.
"""

import copy
import dataclasses
import pickle

import pytest

from eigenbox.spectrum import Cuboid, SpectralPoint, kth_eigenvalue, spectrum_points


@dataclasses.dataclass(frozen=True)
class DictPoint:
    """The class before slots, field for field."""

    value: float
    indices: tuple[tuple[int, int, int], ...]


POINTS = [
    SpectralPoint(3.0 * 9.869604401089358, ((1, 1, 1),)),
    SpectralPoint(6.0 * 9.869604401089358, ((1, 1, 2), (1, 2, 1), (2, 1, 1))),
    SpectralPoint(-0.0, ()),
    SpectralPoint(float("inf"), ((7, 8, 9),)),
]


def test_slots_and_no_instance_dict():
    point = POINTS[1]
    assert SpectralPoint.__slots__ == ("value", "indices")
    assert not hasattr(point, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.value = 1.0
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        point.extra = 1


@pytest.mark.parametrize("point", POINTS)
def test_equality_hash_and_repr_as_before(point):
    before = DictPoint(point.value, point.indices)
    twin = SpectralPoint(point.value, tuple(point.indices))
    assert point == twin and not point != twin
    assert hash(point) == hash(twin) == hash(before) == hash((point.value, point.indices))
    assert repr(point) == repr(before).replace("DictPoint", "SpectralPoint")
    assert point.multiplicity == len(point.indices)
    assert point != SpectralPoint(point.value, point.indices + ((9, 9, 9),))
    assert dataclasses.astuple(point) == dataclasses.astuple(before)
    assert dataclasses.replace(point, value=1.0) == SpectralPoint(1.0, point.indices)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    points = [*POINTS, kth_eigenvalue(Cuboid.from_sides(0.7, 0.9), 37),
              *spectrum_points(Cuboid.from_sides(1.0, 1.0), 30)]
    back = pickle.loads(pickle.dumps(points, protocol=protocol))
    assert back == points
    assert [type(p) for p in back] == [SpectralPoint] * len(points)
    assert [hash(p) for p in back] == [hash(p) for p in points]
    assert copy.deepcopy(points) == points and copy.copy(points[1]) == points[1]
