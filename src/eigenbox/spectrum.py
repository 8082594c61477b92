"""Dirichlet spectra of unit-volume boxes, computed by exact lattice counting.

The eigenvalues of a box with sides ``(a1, a2, a3)`` are
``pi^2 * (i1^2/a1^2 + i2^2/a2^2 + i3^2/a3^2)`` over positive integer triples,
so every spectral query here reduces to lattice points inside an ellipsoid
octant.  Membership is decided by one canonical floating-point predicate
(inclusive at the boundary, relative tolerance ``COUNT_EPS``) that all
counters in the package share.

``count_upto`` counts the octant in blocked numpy passes: a block is a run
of consecutive i1 slices, at most ``_BLOCK`` (i1, i2) columns, whose i3
points one vector kernel call counts, so numpy's dispatch is paid per block
rather than per slice and memory stays flat in lambda.  ``counts_upto``
counts many lambda in one walk, below the largest: its kernel call counts
each block at every lambda.  The unit cube takes the same path, here and in
:mod:`eigenbox.lattice`: its sums are exact integers below 2^53, so the
predicate gives the integer count.  Only ``cube_spectrum_table`` stays
integer.  ``kth_eigenvalue`` and ``spectrum_points`` walk the same blocks
through one band kernel, which counts each column's i3 points at both edges
of a band (lo, hi] in one vector kernel call and returns the band's
eigenvalues with their index triples.  The band sits around the two-term Weyl
guess for lambda_k (from 0 for a spectrum) and widens until it holds the
k-th eigenvalue and its ``DEGENERACY_RTOL`` window; ``candidate_cap``
bounds how many points the band may hold.  ``spectrum_points`` sorts the
band and groups it into spectral points ``_GROUP`` values at a time: two
``searchsorted`` calls give the chunk's window ends and starts, and its
index triples become Python tuples in one call, so beside the band the
grouping holds some 100 kB whatever k_max is.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
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
# A band candidate peaks at 41 B (a float64 value, three int64 indices and
# one 8-byte temporary or sort index; tracemalloc, 40.4 B at K = 2M and
# 40.6 B at K = 500k for a spectrum on the box (0.7, 0.9)), so 24M
# candidates take at most 24M x 41 B = 0.98 GB.
DEFAULT_CANDIDATE_CAP = 24_000_000

# The most (i1, i2) columns, or line points, that one vector kernel call of a
# blocked pass counts.  A block's arrays then take a few MiB at most, whatever
# lambda is.
_BLOCK = 1 << 14

# The most sorted band values whose spectral points ``spectrum_points`` groups
# in one pass.  A pass holds the window ends of its values (about 40 B each)
# and the index triples of its points' windows as Python tuples (about 150 B
# each), so some 100 kB for a generic box, beside the band; a window of
# many degenerate values adds its own triples.
_GROUP = 512

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


def eigenvalue_of_index(cuboid: Cuboid, i1: int, i2: int, i3: int) -> float:
    """Eigenvalue of the mode with lattice index ``(i1, i2, i3)``."""
    if i1 < 1 or i2 < 1 or i3 < 1:
        raise ValueError(f"indices must be >= 1, got ({i1}, {i2}, {i3})")
    q1, q2, q3 = cuboid.inv_sq
    return PI_SQUARED * ((i1 * i1) * q1 + (i2 * i2) * q2 + (i3 * i3) * q3)


# ---------------------------------------------------------------------------
# Canonical membership predicate and its counting kernels.
#
# A point contributes the term (n*n)*q per axis; terms add left to right and
# the sum is scaled by pi^2.  The scalar and vector kernels below perform the
# identical float64 operations, so they agree bit for bit, and a first guess
# from sqrt is always corrected against the predicate itself.
# ---------------------------------------------------------------------------


def _unresolved(lam_eff: float | np.ndarray) -> ResourceLimitError:
    return ResourceLimitError(
        f"float64 cannot count the lattice points below lambda={np.max(lam_eff):.6g} "
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


def _nmax_vec(c: np.ndarray, q: float, lam_eff: float | np.ndarray) -> np.ndarray:
    """_nmax_scalar for each entry of the flat array ``c``, at the scalar
    ``lam_eff`` (counts of shape (n,)) or at each row of the (m, 1) column
    ``lam_eff`` (counts of shape (m, n)).  The first guess must be the
    largest: c starts at its smallest entry and lam_eff at its largest."""
    guess = np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q, 0.0))
    # guess.item(0) is the largest, so this also bounds each row's sum of
    # counts, which callers take in int64.
    if guess.item(0) * len(c) > _NMAX_LIMIT:
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


def _block_columns(c0: float, q: float, lam_eff: float) -> int:
    """Columns that a block whose smallest c is ``c0`` may hold.

    At most ``_BLOCK``, and few enough that the vector kernel's bound on the
    block's int64 sum (largest count times length <= 2^53) holds, so putting
    several slices in one block refuses no count that counting them one by
    one accepts.
    """
    guess = math.sqrt(max((lam_eff / PI_SQUARED - c0) / q, 0.0))
    return min(_BLOCK, int(_NMAX_LIMIT / max(guess, 1.0)))


def _slice_width(rem: float, q2: float) -> int:
    """Columns i2 = 1 .. width that cover a slice whose column i2 = 0 leaves
    ``rem`` of lambda_eff/pi^2, unless rounding moves its edge by two."""
    return int(math.sqrt(max(rem, 0.0) / q2)) + 2


def _octant_blocks(
    inv: tuple[float, float, float], lam_eff: float, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The octant below ``lam_eff`` in blocks of consecutive i1 slices.

    A block is the rectangle of rows i1 .. i1+rows-1 by columns i2 = 1 ..
    width, with width the sqrt estimate for its first (widest) row.  Flattened
    row by row it starts at its smallest c, so one ``_nmax_vec`` call counts
    the i3 points of all its columns.  A slice that alone fills a block is
    cut into pieces of ``_BLOCK`` columns.  If the first row's last column
    holds a point, the estimate fell short for every row: the block goes on
    with the next columns.  Yields, per piece, its rows t1 and columns t2 (as
    floats) and the flat c = t1^2*q1 + t2^2*q2 of its columns.  A slice wider
    than ``cap`` columns raises :class:`ResourceLimitError`.
    """
    q1, q2, q3 = inv
    top = lam_eff / PI_SQUARED
    last = int(math.sqrt(max((top - q2 - q3) / q1, 0.0))) + 1
    i1 = 1
    while True:
        c1 = float(i1 * i1) * q1
        width = _slice_width(top - c1 - q3, q2)
        if width > cap:
            raise ResourceLimitError(
                f"a slice below lambda={lam_eff:.6g} spans more than {cap} columns "
                "(the candidate cap)"
            )
        if PI_SQUARED * (c1 + q2 + q3) > lam_eff:
            return
        rows = max(1, min(_block_columns(c1 + q2, q3, lam_eff) // width, last + 1 - i1))
        t1 = np.arange(i1, i1 + rows, dtype=np.float64)
        row_c = ((t1 * t1) * q1)[:, None]
        step = _BLOCK // rows
        lo = 1
        while lo <= width:
            t2 = np.arange(lo, min(lo + step, width + 1), dtype=np.float64)
            c = (row_c + (t2 * t2) * q2).ravel()
            yield t1, t2, c
            lo += len(t2)
            # The first row's last column holds a point iff it holds i3 = 1,
            # whose term (1.0*1.0)*q3 is q3.
            if lo > width and PI_SQUARED * (float(c[len(t2) - 1]) + q3) <= lam_eff:
                width *= 2
        i1 += rows


def _octant_band(
    inv: tuple[float, float, float], lo_eff: float, hi_eff: float, cap: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """One blocked walk over the octant for the band (lo_eff, hi_eff].

    Returns the number of points with eigenvalue <= ``lo_eff``, and the
    eigenvalues (unsorted) of the points in the band with a (3, n) array of
    their (i1, i2, i3).  The blocks are those of ``_octant_blocks`` at
    ``hi_eff``; one ``_nmax_vec`` call per block counts each column's i3
    points at both edges, or at ``hi_eff`` alone when the block lies wholly
    above ``lo_eff``.  Each value is computed with the float64 operations of
    the membership predicate, so it is the number the counters compare.  A
    slice wider than ``cap`` columns, or more than ``cap`` points in the band,
    raises :class:`ResourceLimitError` before any point array exists.
    """
    q3 = inv[2]
    below = size = 0
    # Per block piece, for its columns with a point in the band: c12, the
    # band's count and (i1, i2, the column's first i3 in the band).
    c12s, counts, cols = [], [], []
    for t1, t2, c in _octant_blocks(inv, hi_eff, cap):
        # The piece's first column holds its lowest point.
        if PI_SQUARED * (float(c[0]) + q3) <= lo_eff:
            g = _nmax_vec(c, q3, np.array([[hi_eff], [lo_eff]]))
            floor = g[1]
            below += int(floor.sum())
            count = g[0] - floor
        else:
            count = _nmax_vec(c, q3, hi_eff)
            floor = 0
        size += int(count.sum())
        if size > cap:
            raise ResourceLimitError(
                f"band ({lo_eff:.6g}, {hi_eff:.6g}] holds more than "
                f"{cap} candidates (the candidate cap)"
            )
        col = np.empty((3, len(t1), len(t2)), dtype=np.int64)
        col[0] = t1[:, None]
        col[1] = t2
        col = col.reshape(3, -1)
        col[2] = floor + 1
        nz = count.nonzero()[0]
        c12s.append(c[nz])
        counts.append(count[nz])
        cols.append(col[:, nz])
    if not cols:
        return below, np.empty(0), np.empty((3, 0), dtype=np.int64)
    # Column j holds the band's i3 = col[2, j] .. col[2, j] + count[j] - 1.
    count, col, c12 = (
        p[0] if len(p) == 1 else np.concatenate(p, axis=-1) for p in (counts, cols, c12s)
    )
    col[2] -= count.cumsum() - count
    triples = col.repeat(count, axis=1)
    triples[2] += np.arange(size, dtype=np.int64)
    # pi^2 * (c12 + (t3*t3)*q3) in place: one temporary of 8 B a point.
    values = c12.repeat(count)
    t3 = triples[2].astype(np.float64)
    np.multiply(t3, t3, out=t3)
    t3 *= q3
    values += t3
    values *= PI_SQUARED
    return below, values, triples


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


def counts_upto(cuboid: Cuboid, lams: Sequence[float]) -> list[int]:
    """``count_upto`` at every lambda of ``lams``, in their order.

    One walk of the octant below the largest lambda counts them all: one
    ``_nmax_vec`` call per block piece counts its columns at every lambda,
    largest first.  That call holds len(lams) rows of up to ``_BLOCK``
    counts, so its memory grows with the number of lambda.
    """
    for lam in lams:
        if lam < 0.0 or not math.isfinite(lam):
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if not lams:
        return []
    order = sorted(range(len(lams)), key=lams.__getitem__, reverse=True)
    rows = np.array([[lams[i]] for i in order]) * (1.0 + COUNT_EPS)
    q3 = cuboid.inv_sq[2]
    totals = [0] * len(lams)
    for _, _, c in _octant_blocks(cuboid.inv_sq, rows.item(0), DEFAULT_CANDIDATE_CAP):
        sums = _nmax_vec(c, q3, rows).sum(axis=1).tolist()
        totals = [t + s for t, s in zip(totals, sums)]
    counts = [0] * len(lams)
    for i, total in zip(order, totals):
        counts[i] = total
    return counts


def count_upto(cuboid: Cuboid, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) at most ``lam``.

    Equals the number of positive lattice triples inside the closed ellipsoid
    E(lam); counting is inclusive at the boundary within ``COUNT_EPS``.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    lam_eff = lam * (1.0 + COUNT_EPS)
    q3 = cuboid.inv_sq[2]
    total = 0
    for _, _, c in _octant_blocks(cuboid.inv_sq, lam_eff, DEFAULT_CANDIDATE_CAP):
        total += int(_nmax_vec(c, q3, lam_eff).sum())
    return total


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


def _band(
    cuboid: Cuboid, k: int, cap: int, from_zero: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """A band around the Weyl guess for the k-th eigenvalue.

    Each side of the band widens until the band holds the k-th eigenvalue and
    its whole DEGENERACY_RTOL window; with ``from_zero`` the band starts at 0.
    Returns the band's values (unsorted), its index triples and the k-th
    value.
    """
    guess = _weyl_guess(cuboid, k)
    # The guess's relative error shrinks like k^(-1/3).  Over the search
    # domain the k-th eigenvalue lies at most about 69 % above the guess
    # (k = 1, on the box with a1 = a1_lower_bound() and a2 = a3), so capped
    # at 0.75 above it the first band holds the k-th eigenvalue on every
    # domain box and at most 8k points on the thinnest one (9k capped at 1).
    # Off the domain it can miss (lambda_1 / guess tends to 16/9 as a1 -> 0
    # with a2 = a3); a miss widens it to the margin capped at 1, and only
    # then doubles, so no band is wider than that margin's would be.  Below
    # the guess the cap stays 1, which puts lo at 0 for k <= 8: a band from
    # 0 needs no floor counts.
    margin = min(2.0 * k ** (-1.0 / 3.0), 1.0)
    down = margin
    up = min(margin, 0.75)
    while True:
        lo = 0.0 if from_zero else max(guess * (1.0 - down), 0.0)
        hi = guess * (1.0 + up)
        below, values, triples = _octant_band(cuboid.inv_sq, lo, hi, cap)
        j = k - 1 - below
        value = float(np.partition(values, j)[j]) if 0 <= j < len(values) else math.nan
        if j < 0 or value * (1.0 - DEGENERACY_RTOL) <= lo:
            down *= 2.0
        elif j >= len(values) or value * (1.0 + DEGENERACY_RTOL) > hi:
            up = margin if up < margin else 2.0 * up
        else:
            return values, triples, value


def _indices(triples: np.ndarray) -> list[tuple[int, int, int]]:
    """The columns of a (3, n) index array as (i1, i2, i3) tuples, in order."""
    return list(zip(*triples.tolist()))


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
    values, triples, value = _band(cuboid, k, candidate_cap, from_zero=False)
    near = values >= value * (1.0 - DEGENERACY_RTOL)
    near &= values <= value * (1.0 + DEGENERACY_RTOL)
    indices = tuple(sorted(_indices(triples.compress(near, axis=1))))
    return SpectralPoint(value=value, indices=indices)


def spectrum_points(
    cuboid: Cuboid, k_max: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[SpectralPoint]:
    """Distinct spectral points covering eigenvalues 1..k_max.

    Points are sorted ascending; their multiplicities sum to at least
    ``k_max``.  Near-degenerate values merge per ``DEGENERACY_RTOL``: each
    point starts at the lowest value not yet covered, and holds every value
    within DEGENERACY_RTOL of it, also values that an earlier point holds.

    The sorted band is grouped ``_GROUP`` values at a time.  One
    ``searchsorted`` call gives the window end of every value in the chunk;
    the chain of ends from the chunk's first point gives the points that start
    in it, and one more call gives their window starts.  The index triples of
    the chunk's windows become Python tuples in one ``_indices`` call.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    values, triples, _ = _band(cuboid, k_max, candidate_cap, from_zero=True)
    # Sorted in place, the band peaks at 41 B a candidate with the order.
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
        firsts = values[heads]
        starts = np.searchsorted(values, firsts * (1.0 - DEGENERACY_RTOL), "left").tolist()
        # A window may start before its point's first value, inside the
        # window of the point before.
        lo = starts[0]
        tuples = _indices(triples.take(order[lo:head], axis=1))
        for value, start, end in zip(firsts.tolist(), starts, [*heads[1:], head]):
            points.append(SpectralPoint(value, tuple(sorted(tuples[start - lo:end - lo]))))
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
