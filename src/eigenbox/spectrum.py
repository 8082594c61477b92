"""Dirichlet spectra of unit-volume boxes, computed by exact lattice counting.

The eigenvalues of a box with sides ``(a1, a2, a3)`` are
``pi^2 * (i1^2/a1^2 + i2^2/a2^2 + i3^2/a3^2)`` over positive integer triples,
so every spectral query here reduces to lattice points inside an ellipsoid
octant.  Membership is decided by one canonical floating-point predicate
(inclusive at the boundary, relative tolerance ``COUNT_EPS``) that all
counters in the package share.

``count_upto`` counts the octant; on the unit cube it takes a pure integer
path that is exactly equivalent to the predicate.  ``kth_eigenvalue`` and
``spectrum_points`` walk it through one band kernel, which returns the
eigenvalues in a band (lo, hi] with their index triples.  The band sits
around the two-term Weyl guess for lambda_k (from 0 for a spectrum) and
widens until it holds the k-th eigenvalue and its ``DEGENERACY_RTOL``
window; ``candidate_cap`` bounds how many points the band may hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PI = math.pi
PI_SQUARED = math.pi**2

# A lattice triple is counted as inside E(lambda) when its eigenvalue is
# <= lambda * (1 + COUNT_EPS).  Inclusive counting avoids undercounting at
# exact eigenvalues under round-off; the boundary set is closed.
COUNT_EPS = 1e-10

# Eigenvalues whose relative gap is below this merge into one spectral point.
DEGENERACY_RTOL = 1e-9

# Construction rejects side triples whose product strays further than this
# from unit volume.
VOLUME_TOL = 1e-12

# Default ceiling on the number of candidates one eigenvalue band may hold.
# A band candidate peaks at 49 B while the band is built (a float64 value,
# three int64 indices and their temporaries; tracemalloc, K = 2M on the box
# (0.7, 0.9)), so 24M candidates take at most 24M x 49 B = 1.18 GB, within
# the 50M x 23.9 B = 1.20 GB of a former cap of 50M bare values.
DEFAULT_CANDIDATE_CAP = 24_000_000

# Below this slice width the scalar inner loop beats numpy dispatch.
_VECTOR_MIN = 24

# The counting kernels correct a sqrt guess against the predicate one step at
# a time.  Past 2^53, or where the other axes' terms swamp a step, a step of
# one may not change the float predicate and the correction would not end; so
# a count past _NMAX_LIMIT, or a correction of more than _MAX_STEPS steps,
# raises ResourceLimitError.
_NMAX_LIMIT = 2.0**53
_MAX_STEPS = 4


class ResourceLimitError(RuntimeError):
    """An eigenvalue query would enumerate more candidates than allowed."""


@dataclass(frozen=True)
class Cuboid:
    """Unit-volume box with sides sorted ascending.

    Use :meth:`from_sides` to build one from two free side lengths; the third
    side comes from the volume constraint and the triple is then sorted.
    Direct construction validates the invariants and rejects bad triples.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        # Within [1e-154, 1e154] every side's square and inverse square is finite.
        if not (1e-154 <= self.a1 and self.a3 <= 1e154):
            raise ValueError(f"sides must be positive finite, within [1e-154, 1e154], got {self}")
        if not (self.a1 <= self.a2 <= self.a3):
            raise ValueError(f"sides must be sorted ascending, got {self}")
        if abs(self.a1 * self.a2 * self.a3 - 1.0) > VOLUME_TOL:
            raise ValueError(f"volume must be 1, got sides {self.sides}")

    @classmethod
    def from_sides(cls, a1: float, a2: float) -> "Cuboid":
        """Box with sides ``a1``, ``a2`` and ``1/(a1*a2)``, sorted."""
        if not (a1 > 0.0 and a2 > 0.0 and 0.0 < a1 * a2 < math.inf):
            raise ValueError(f"sides and their product must be positive finite, got {a1}, {a2}")
        s1, s2, s3 = sorted((a1, a2, 1.0 / (a1 * a2)))
        return cls(s1, s2, s3)

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    @cached_property
    def inv_sq(self) -> tuple[float, float, float]:
        # Hot loops consume inverse squared sides (one multiply-add per axis).
        return (1.0 / self.a1**2, 1.0 / self.a2**2, 1.0 / self.a3**2)

    @property
    def is_cube(self) -> bool:
        return self.a1 == 1.0 and self.a2 == 1.0 and self.a3 == 1.0


UNIT_CUBE = Cuboid(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class SpectralPoint:
    """One eigenvalue with every lattice triple attaining it."""

    value: float
    indices: tuple[tuple[int, int, int], ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class EllipsoidSpec:
    """The ellipsoid whose positive-octant lattice points are the spectrum up to ``lam``."""

    lam: float
    cuboid: Cuboid

    @property
    def semi_axes(self) -> tuple[float, float, float]:
        r = math.sqrt(self.lam) / PI
        a1, a2, a3 = self.cuboid.sides
        return (a1 * r, a2 * r, a3 * r)

    @property
    def volume(self) -> float:
        return 4.0 / (3.0 * PI_SQUARED) * self.lam**1.5


def eigenvalue_of_index(cuboid: Cuboid, i1: int, i2: int, i3: int) -> float:
    """Eigenvalue of the mode with lattice index ``(i1, i2, i3)``."""
    if i1 < 1 or i2 < 1 or i3 < 1:
        raise ValueError(f"indices must be >= 1, got ({i1}, {i2}, {i3})")
    q1, q2, q3 = cuboid.inv_sq
    return PI_SQUARED * ((i1 * i1) * q1 + (i2 * i2) * q2 + (i3 * i3) * q3)


def cube_upper_bound(k: int) -> float:
    """Upper bound 3*pi^2*k^2 for the k-th eigenvalue of the unit cube."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 3.0 * PI_SQUARED * k * k


# ---------------------------------------------------------------------------
# Canonical membership predicate and its counting kernels.
#
# A point contributes the term (n*n)*q per axis; terms add left to right and
# the sum is scaled by pi^2.  The scalar and vector kernels below perform the
# identical float64 operations, so they agree bit for bit, and a first guess
# from sqrt is always corrected against the predicate itself.
# ---------------------------------------------------------------------------


def _unresolved(lam_eff: float) -> ResourceLimitError:
    return ResourceLimitError(
        f"float64 cannot count the lattice points below lambda={lam_eff:.6g} "
        "on this box: a count passes 2^53 or a unit step is below rounding"
    )


def _nmax_scalar(c: float, q: float, lam_eff: float) -> int:
    """Largest n >= 0 with pi^2*(c + n^2*q) <= lam_eff."""
    guess = math.sqrt(max((lam_eff / PI_SQUARED - c) / q, 0.0))
    if guess > _NMAX_LIMIT:
        raise _unresolved(lam_eff)
    n = first = int(guess)
    while PI_SQUARED * (c + float((n + 1) * (n + 1)) * q) <= lam_eff:
        n += 1
        if n - first > _MAX_STEPS:
            raise _unresolved(lam_eff)
    while n > 0 and PI_SQUARED * (c + float(n * n) * q) > lam_eff:
        n -= 1
        if first - n > _MAX_STEPS:
            raise _unresolved(lam_eff)
    return n


def _nmax_vec(c: np.ndarray, q: float, lam_eff: float) -> np.ndarray:
    """_nmax_scalar for each entry of ``c``, which must ascend."""
    guess = np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q, 0.0))
    # guess[0] is the largest, so this also bounds the sum of the counts,
    # which callers take in int64.
    if guess[0] * len(c) > _NMAX_LIMIT:
        raise _unresolved(lam_eff)
    g = guess.astype(np.int64)
    for _ in range(_MAX_STEPS):
        t = (g + 1).astype(np.float64)
        ok = PI_SQUARED * (c + (t * t) * q) <= lam_eff
        if not ok.any():
            break
        g += ok.astype(np.int64)
    else:
        raise _unresolved(lam_eff)
    for _ in range(_MAX_STEPS):
        t = g.astype(np.float64)
        bad = (g > 0) & (PI_SQUARED * (c + (t * t) * q) > lam_eff)
        if not bad.any():
            break
        g -= bad.astype(np.int64)
    else:
        raise _unresolved(lam_eff)
    return g


def _slice_third_counts(
    c1: float, q2: float, q3: float, lam_eff: float, cap: int = DEFAULT_CANDIDATE_CAP
) -> np.ndarray:
    """For i2 = 1, 2, ... the count of i3 >= 1 with (i1, i2, i3) inside.

    The returned array covers the full feasible i2 range (its last entry is
    zero or the range was empty).  A range of more than ``cap`` columns raises
    :class:`ResourceLimitError` before any array exists.
    """
    rem = lam_eff / PI_SQUARED - c1 - q3
    width = int(math.sqrt(max(rem, 0.0) / q2)) + 2
    if width > cap:
        raise ResourceLimitError(
            f"a slice below lambda={lam_eff:.6g} spans more than {cap} columns (the candidate cap)"
        )
    if width <= _VECTOR_MIN:
        counts = []
        i2 = 1
        while True:
            n = _nmax_scalar(c1 + float(i2 * i2) * q2, q3, lam_eff)
            if n == 0:
                break
            counts.append(n)
            i2 += 1
        return np.asarray(counts, dtype=np.int64)
    while True:
        i2 = np.arange(1, width + 1, dtype=np.int64)
        t2 = i2.astype(np.float64)
        c12 = c1 + (t2 * t2) * q2
        g = _nmax_vec(c12, q3, lam_eff)
        if g[-1] == 0:
            return g
        width *= 2


def _octant_count(inv: tuple[float, float, float], lam_eff: float) -> int:
    q1, q2, q3 = inv
    total = 0
    i1 = 1
    while True:
        g = _slice_third_counts(float(i1 * i1) * q1, q2, q3, lam_eff)
        n = int(g.sum())
        if n == 0:
            break
        total += n
        i1 += 1
    return total


def _octant_band(
    inv: tuple[float, float, float], lo_eff: float, hi_eff: float, cap: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """One walk over the octant for the band (lo_eff, hi_eff].

    Returns the number of points with eigenvalue <= ``lo_eff``, and the
    eigenvalues (unsorted) and (i1, i2, i3) rows of the points in the band.
    Each value is computed with the float64 operations of the membership
    predicate, in the same order, so it is the number the counters compare.
    Raises :class:`ResourceLimitError` as soon as the slices counted so far
    put more than ``cap`` points in the band, before any point array exists.
    """
    q1, q2, q3 = inv
    below = 0
    size = 0
    tops, floors = [], []
    i1 = 1
    while True:
        c1 = float(i1 * i1) * q1
        top = _slice_third_counts(c1, q2, q3, hi_eff, cap)
        n_top = int(top.sum())
        if n_top == 0:
            break
        floor = np.zeros_like(top)
        if PI_SQUARED * (c1 + q2 + q3) <= lo_eff:
            g = _slice_third_counts(c1, q2, q3, lo_eff, cap)[: len(top)]
            floor[: len(g)] = g
        n_floor = int(floor.sum())
        below += n_floor
        size += n_top - n_floor
        if size > cap:
            raise ResourceLimitError(
                f"band ({lo_eff:.6g}, {hi_eff:.6g}] holds more than "
                f"{cap} candidates (the candidate cap)"
            )
        tops.append(top)
        floors.append(floor)
        i1 += 1
    if not tops:
        return below, np.empty(0), np.empty((0, 3), dtype=np.int64)
    # One entry per (i1, i2) column; column j holds i3 = floor[j]+1 .. top[j].
    lengths = [len(t) for t in tops]
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i1 = np.repeat(np.arange(1, len(tops) + 1, dtype=np.int64), lengths)
    i2 = np.arange(len(offsets), dtype=np.int64) - offsets + 1
    floor = np.concatenate(floors)
    reps = np.concatenate(tops) - floor
    nz = reps > 0
    i1, i2, floor, reps = i1[nz], i2[nz], floor[nz], reps[nz]
    t1 = i1.astype(np.float64)
    t2 = i2.astype(np.float64)
    c12 = np.repeat((t1 * t1) * q1 + (t2 * t2) * q2, reps)
    rows = np.empty((size, 3), dtype=np.int64)
    rows[:, 0] = np.repeat(i1, reps)
    rows[:, 1] = np.repeat(i2, reps)
    rows[:, 2] = np.arange(size, dtype=np.int64)
    rows[:, 2] += np.repeat(floor + 1 - (np.cumsum(reps) - reps), reps)
    t3 = rows[:, 2].astype(np.float64)
    return below, PI_SQUARED * (c12 + (t3 * t3) * q3), rows


# Integer path for the unit cube: the predicate reduces exactly to
# i1^2 + i2^2 + i3^2 <= m with m below.


def _cube_cutoff(lam_eff: float) -> int:
    m = max(int(lam_eff / PI_SQUARED), 0)
    while PI_SQUARED * float(m + 1) <= lam_eff:
        m += 1
    while m > 0 and PI_SQUARED * float(m) > lam_eff:
        m -= 1
    return m


def _cube_octant_count(m: int) -> int:
    if m < 3:
        return 0
    total = 0
    for i1 in range(1, math.isqrt(m - 2) + 1):
        r1 = m - i1 * i1
        for i2 in range(1, math.isqrt(r1 - 1) + 1):
            total += math.isqrt(r1 - i2 * i2)
    return total


def _cube_octant_hist(m: int) -> np.ndarray:
    """hist[s] = number of positive triples with i1^2+i2^2+i3^2 == s, s <= m."""
    hist = np.zeros(m + 1, dtype=np.int64)
    if m < 3:
        return hist
    for i1 in range(1, math.isqrt(m - 2) + 1):
        r1 = m - i1 * i1
        for i2 in range(1, math.isqrt(r1 - 1) + 1):
            jmax = math.isqrt(r1 - i2 * i2)
            if jmax:
                j = np.arange(1, jmax + 1, dtype=np.int64)
                np.add.at(hist, i1 * i1 + i2 * i2 + j * j, 1)
    return hist


def count_upto(cuboid: Cuboid, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) at most ``lam``.

    Equals the number of positive lattice triples inside the closed ellipsoid
    E(lam); counting is inclusive at the boundary within ``COUNT_EPS``.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    lam_eff = lam * (1.0 + COUNT_EPS)
    if cuboid.is_cube:
        return _cube_octant_count(_cube_cutoff(lam_eff))
    return _octant_count(cuboid.inv_sq, lam_eff)


def _weyl_guess(cuboid: Cuboid, k: int) -> float:
    """The lambda at which the two-term Weyl law lambda^(3/2)/(6 pi^2) -
    S lambda/(16 pi), S the surface area, reaches k.

    Newton's method in x = sqrt(lambda) on the cubic, started at a point above
    its only positive root where the cubic is convex, descends to the root.
    """
    a1, a2, a3 = cuboid.sides
    s = 2.0 * (a1 * a2 + a1 * a3 + a2 * a3)
    x = (6.0 * PI_SQUARED * k) ** (1.0 / 3.0) + 3.0 * PI * s / 8.0
    while True:
        step = (x**3 / (6.0 * PI_SQUARED) - s * x * x / (16.0 * PI) - k) / (
            x * x / (2.0 * PI_SQUARED) - s * x / (8.0 * PI)
        )
        x -= step
        if step <= 1e-12 * x:
            return x * x


def _sorted_band(
    cuboid: Cuboid, k: int, cap: int, from_zero: bool
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """A band around the Weyl guess for the k-th eigenvalue.

    Each side of the band widens until the band holds the k-th eigenvalue and
    its whole DEGENERACY_RTOL window; with ``from_zero`` the band starts at 0.
    Returns the count of eigenvalues below the band, the band's values sorted,
    its index rows in kernel order, and the order that sorts them.
    """
    guess = _weyl_guess(cuboid, k)
    # The guess's relative error shrinks like k^(-1/3).  Capped at 1, the margin
    # holds 9k points at k = 1 on the thinnest domain box (27k uncapped).
    down = up = min(2.0 * k ** (-1.0 / 3.0), 1.0)
    while True:
        lo = 0.0 if from_zero else max(guess * (1.0 - down), 0.0)
        hi = guess * (1.0 + up)
        below, values, rows = _octant_band(cuboid.inv_sq, lo, hi, cap)
        order = np.argsort(values)
        values = values[order]
        j = k - 1 - below
        if j < 0 or (j < len(values) and values[j] * (1.0 - DEGENERACY_RTOL) <= lo):
            down *= 2.0
        elif j >= len(values) or values[j] * (1.0 + DEGENERACY_RTOL) > hi:
            up *= 2.0
        else:
            return below, values, rows, order


def _point(
    values: np.ndarray, rows: np.ndarray, order: np.ndarray, at: int
) -> tuple[SpectralPoint, int]:
    """The spectral point of ``values[at]`` and the end of its window."""
    value = float(values[at])
    start = int(np.searchsorted(values, value * (1.0 - DEGENERACY_RTOL), side="left"))
    stop = int(np.searchsorted(values, value * (1.0 + DEGENERACY_RTOL), side="right"))
    indices = tuple(sorted(map(tuple, rows[order[start:stop]].tolist())))
    return SpectralPoint(value=value, indices=indices), stop


def kth_eigenvalue(
    cuboid: Cuboid, k: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> SpectralPoint:
    """The k-th eigenvalue (1-based, with multiplicity) of ``cuboid``.

    Enumerates the eigenvalues in a band around the two-term Weyl guess,
    widened until it holds the k-th, and selects it with every lattice triple
    within DEGENERACY_RTOL.  Raises :class:`ResourceLimitError` when the band
    would hold more than ``candidate_cap`` candidates, which guards against
    pathologically thin boxes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    below, values, rows, order = _sorted_band(cuboid, k, candidate_cap, from_zero=False)
    return _point(values, rows, order, k - 1 - below)[0]


def spectrum_points(
    cuboid: Cuboid, k_max: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[SpectralPoint]:
    """Distinct spectral points covering eigenvalues 1..k_max.

    Points are sorted ascending; their multiplicities sum to at least
    ``k_max``.  Near-degenerate values merge per ``DEGENERACY_RTOL``: each
    point starts at the lowest value not yet covered.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _, values, rows, order = _sorted_band(cuboid, k_max, candidate_cap, from_zero=True)
    points = []
    covered = 0
    while covered < k_max:
        point, covered = _point(values, rows, order, covered)
        points.append(point)
    return points


def cube_spectrum_table(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-k data for the unit cube: (nu_k/pi^2, multiplicity, N(nu_k)).

    Arrays are 1-based on k (index 0 unused) and run up to ``k_max``.  All
    three are exact integers.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m = 8
    while True:
        hist = _cube_octant_hist(m)
        cum = np.cumsum(hist)
        if cum[-1] >= k_max:
            break
        m *= 2
    ks = np.arange(1, k_max + 1)
    s = np.searchsorted(cum, ks)
    table_m = np.concatenate(([0], s))
    table_theta = np.concatenate(([0], hist[s]))
    table_count = np.concatenate(([0], cum[s]))
    return table_m, table_theta, table_count
