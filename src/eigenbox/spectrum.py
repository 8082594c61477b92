"""Dirichlet spectra of unit-volume boxes, computed by exact lattice counting.

The eigenvalues of a box with sides ``(a1, a2, a3)`` are
``pi^2 * (i1^2/a1^2 + i2^2/a2^2 + i3^2/a3^2)`` over positive integer triples,
so every spectral query here reduces to lattice points inside an ellipsoid
octant.  Membership is decided by one canonical floating-point predicate
(inclusive at the boundary, relative tolerance ``COUNT_EPS``) that all
counters in the package share.

Every count walks the octant in the pieces of ``_octant_pieces``: a block is
a run of consecutive i1 slices, at most ``_BLOCK`` (i1, i2) columns, whose
i3 points one vector kernel call counts, so numpy's dispatch is paid per
block rather than per slice and memory stays flat in lambda.
``counts_upto`` counts many lambda in one walk, below the largest: it
trims each piece to the columns that reach the largest lambda, its kernel
call counts them at every lambda, and ``count_upto`` is its one-lambda call,
at a scalar edge.  The unit cube takes the same path, here and in
:mod:`eigenbox.lattice`: its sums are exact integers below 2^53, so the
predicate gives the integer count.  Only the cube's level counts,
``_cube_levels``, stay integer.  ``kth_eigenvalues`` (``kth_eigenvalue`` is
its one-box call) and ``spectrum_points`` go through one band pass,
``_octant_bands``, which counts each column's i3 points at both edges of a
band (lo, hi] and returns the band's eigenvalues with their index triples.
One piece counter, ``_count_ragged``, counts every band piece: ``_runs``,
the packer of the lattice passes too, packs the pieces of all bands, one
band or many, in band order into runs of at most ``_BLOCK`` entries, one
call a run, so ``kth_eigenvalues`` pays numpy's dispatch per run rather
than per box, and a big band spans runs.  The band sits around the two-term
Weyl guess for lambda_k (from 0 for a spectrum) and widens until it holds
the k-th eigenvalue and its ``DEGENERACY_RTOL`` window; ``candidate_cap``
bounds how many points the band may hold.  An empty band (lambda, lambda]
is a count: the identity suite takes N of all its boxes from one such pass.
``spectrum_points`` sorts the band and groups it into spectral points
``_GROUP`` values at a time: one ``searchsorted`` call gives the chunk's
window ends, a window running up from its point's first value and holding
no value of another point, its index triples become Python tuples in one
call, and its points are made in one ``map``, a window of one triple taken
as it is, with no sort; so beside the band the grouping holds some 100 kB
whatever k_max is.  ``reporting.spectrum_records`` zips the points' columns
into records, and the CSV writer formats them by % templates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
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

# The most band points that a pass over many bands assembles at once: some
# 2.7 MB at 41 B a point.  One band that holds more is assembled alone.
_BAND_POINTS = 1 << 16

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


@dataclass(frozen=True, slots=True)
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


def _nmax_vec(c: np.ndarray, q: float | np.ndarray, lam_eff: float | np.ndarray) -> np.ndarray:
    """_nmax_scalar for each entry of the flat array ``c``, at the scalar
    ``lam_eff`` (counts of shape (n,)), at each row of the (m, 1) column
    ``lam_eff`` (counts of shape (m, n)), or at per-entry ``q`` and
    ``lam_eff`` arrays.  Callers take sums of the counts in int64, bounded
    by the largest guess times len(c) below, whatever the order of c and of
    the rows.  ``_runs`` packs a pass's pieces, a block or the pieces of
    several bands or line families, into calls within that bound.

    The counts are float64, in place in one buffer, until one int64
    conversion at the end.  An integer below 2^53 is exact in float64, so
    each entry sees the same float64 operations as with int64 counts, some
    with commuted operands, and gets the same count."""
    x = lam_eff / PI_SQUARED - c
    x /= q
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    if x.max() * len(c) > _NMAX_LIMIT:
        raise _unresolved(lam_eff)
    np.floor(x, out=x)
    u = np.empty_like(x)
    for _ in range(_MAX_STEPS):
        np.add(x, 1.0, out=u)
        u *= u
        ok = _scaled(u, c, q) <= lam_eff
        if not np.count_nonzero(ok):
            break
        x += ok
    else:
        raise _unresolved(lam_eff)
    for _ in range(_MAX_STEPS):
        bad = _scaled(np.multiply(x, x, out=u), c, q) > lam_eff
        bad &= x > 0.0
        if not np.count_nonzero(bad):
            break
        x -= bad
    else:
        raise _unresolved(lam_eff)
    return x.astype(np.int64)


def _scaled(u: np.ndarray, c: np.ndarray, q: float | np.ndarray) -> np.ndarray:
    """pi^2 * (c + u*q) in place in ``u``, u a squared count."""
    u *= q
    u += c
    u *= PI_SQUARED
    return u


def _block_columns(c0: float, q: float, lam_eff: float) -> int:
    """Columns that a block whose smallest c is ``c0`` may hold.

    At most ``_BLOCK``, and few enough that the vector kernel's bound on the
    block's int64 sum (largest count times length <= 2^53) holds, so putting
    several slices in one block refuses no count that counting them one by
    one accepts.
    """
    guess = math.sqrt(max((lam_eff / PI_SQUARED - c0) / q, 0.0))
    return min(_BLOCK, int(_NMAX_LIMIT / max(guess, 1.0)))


def _runs(pieces: Iterable[tuple[object, int, float]]) -> Iterator[tuple[list, object]]:
    """Runs of the (piece, entries, first-column guess) ``pieces``, in order:
    a run takes the next piece unless it would pass ``_BLOCK`` entries, or
    its largest guess times its entries 2^53, as ``_block_columns`` sizes a
    block.  Yields each run with the piece after it (None after the last
    run, empty without pieces), for ``_piece_runs`` and ``_count_pieces``."""
    run, length, top = [], 0, 0.0
    for piece, entries, guess in pieces:
        if run and (length + entries > _BLOCK
                    or max(top, guess) * (length + entries) > _NMAX_LIMIT):
            yield run, piece
            run, length, top = [], 0, 0.0
        run.append(piece)
        length += entries
        top = max(top, guess)
    yield run, None


def _slice_width(rem: float, q2: float) -> int:
    """Columns i2 = 1 .. width that cover a slice whose column i2 = 0 leaves
    ``rem`` of lambda_eff/pi^2, unless rounding moves its edge by two."""
    return int(math.sqrt(max(rem, 0.0) / q2)) + 2


def _octant_pieces(
    inv: tuple[float, float, float], lam_eff: float, cap: int
) -> Iterator[tuple[int, int, int, int]]:
    """The octant below ``lam_eff`` in blocks of consecutive i1 slices.

    A block is the rectangle of rows i1 .. i1+rows-1 by columns i2 = 1 ..
    width, with width the sqrt estimate for its first (widest) row.  Flattened
    row by row it starts at its smallest c = t1^2*q1 + t2^2*q2, so one
    ``_nmax_vec`` call counts the i3 points of all its columns.  A slice that
    alone fills a block is cut into pieces of ``_BLOCK`` columns.  If the
    first row's last column holds a point, the estimate fell short for every
    row: the block goes on with the next columns.  Yields, per piece, (i1,
    rows, lo, hi): its rows i1 .. i1+rows-1 by its columns lo .. hi-1.  A
    slice wider than ``cap`` columns raises :class:`ResourceLimitError`.
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
        step = _BLOCK // rows
        lo = 1
        while lo <= width:
            hi = min(lo + step, width + 1)
            yield i1, rows, lo, hi
            lo = hi
            # The first row's last column holds a point iff it holds i3 = 1,
            # whose term (1.0*1.0)*q3 is q3.
            if lo > width and PI_SQUARED * (c1 + float(width * width) * q2 + q3) <= lam_eff:
                width *= 2
        i1 += rows


def _count_ragged(
    bands: Sequence[tuple[tuple[float, float, float], float, float]], run: list[tuple]
) -> tuple[list[tuple[int, int, int]], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Count each piece (band, i1, rows, lo, hi) of ``run`` at both edges of
    its band, in one ``_nmax_vec`` call over the run's flat entries at their
    own q and edges (an entry above lo counts 0 there); only at lo when every
    band is empty, lo == hi, as a count.  It is the one counter of band
    pieces: it counts each run of ``_piece_runs``.

    Returns, per piece, its points at or below lo, its points in the band
    and its columns with a point in the band; and, for the columns with a
    point in the band, in order, c12, the band's count and (i1, i2, the
    column's first i3 in the band).
    """
    b, i1, rows, lo, hi = (np.array(col) for col in zip(*run))
    q1, q2, q3, lo_eff, hi_eff = (
        np.array(col) for col in zip(*[(*bands[x][0], *bands[x][1:]) for x in b.tolist()])
    )
    # The run's rows, then its entries row by row: repeats, no division.
    piece = np.repeat(np.arange(len(run)), rows)
    first = np.cumsum(rows) - rows
    i1 = i1[piece] + (np.arange(len(piece)) - first[piece])
    t1 = i1.astype(np.float64)
    width = (hi - lo)[piece]
    at = np.cumsum(width) - width
    i2 = np.repeat(lo[piece] - at, width) + np.arange(at[-1] + width[-1])
    t2 = i2.astype(np.float64)
    c = np.repeat((t1 * t1) * q1[piece], width) + (t2 * t2) * np.repeat(q2[piece], width)
    counting = np.array_equal(lo_eff, hi_eff)
    q3, lo_eff, hi_eff = (np.repeat(x[piece], width) for x in (q3, lo_eff, hi_eff))
    starts = at[first]
    if counting:
        floors = np.add.reduceat(_nmax_vec(c, q3, lo_eff), starts).tolist()
        return [(f, 0, 0) for f in floors], _NO_COLUMNS
    g = _nmax_vec(c, q3, np.array((hi_eff, lo_eff)))
    floor, count = g[1], g[0] - g[1]
    nz = count.nonzero()[0]
    ends = np.searchsorted(nz, [*starts[1:].tolist(), len(c)]).tolist()
    stats = zip(np.add.reduceat(floor, starts).tolist(), np.add.reduceat(count, starts).tolist(),
                [end - start for start, end in zip([0, *ends], ends)])
    col = np.array((i1[np.searchsorted(at, nz, "right") - 1], i2[nz], floor[nz] + 1))
    return list(stats), (c[nz], count[nz], col)


_NO_COLUMNS = (np.empty(0), np.empty(0, dtype=np.int64), np.empty((3, 0), dtype=np.int64))


def _band_points(
    c12: np.ndarray, count: np.ndarray, col: np.ndarray, q3: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The values and (3, n) index triples of the band points of columns
    (c12, count, col), column by column; ``q3`` is a scalar or one per point."""
    # Column j holds the band's i3 = col[2, j] .. col[2, j] + count[j] - 1.
    col[2] -= count.cumsum() - count
    triples = col.repeat(count, axis=1)
    triples[2] += np.arange(triples.shape[1], dtype=np.int64)
    # pi^2 * (c12 + (t3*t3)*q3) in place: one temporary of 8 B a point.
    values = c12.repeat(count)
    t3 = triples[2].astype(np.float64)
    np.multiply(t3, t3, out=t3)
    t3 *= q3
    values += t3
    values *= PI_SQUARED
    return values, triples


def _band_cap(lo_eff: float, hi_eff: float, cap: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"band ({lo_eff:.6g}, {hi_eff:.6g}] holds more than {cap} candidates (the candidate cap)"
    )


def _piece_runs(
    bands: Sequence[tuple[tuple[float, float, float], float, float]], cap: int
) -> Iterator[tuple[list[tuple], int]]:
    """The runs of ``_octant_bands``: (run, closed), with run the next
    pieces (band, i1, rows, lo, hi) of the bands' ``_octant_pieces`` at
    hi_eff, in band order, as ``_runs`` packs them, and closed the band of
    the piece after the run, len(bands) after the last run: every band
    before it has all its pieces in this run or an earlier one."""
    def pieces():
        for b, (inv, _, hi_eff) in enumerate(bands):
            q1, q2, q3 = inv
            for i1, rows, lo, hi in _octant_pieces(inv, hi_eff, cap):
                # Column (i1, lo) has the piece's largest count.
                c = float(i1 * i1) * q1 + float(lo * lo) * q2
                guess = math.sqrt(max((hi_eff / PI_SQUARED - c) / q3, 0.0))
                yield (b, i1, rows, lo, hi), rows * (hi - lo), guess

    for run, after in _runs(pieces()):
        yield run, len(bands) if after is None else after[0]


def _octant_bands(
    bands: Sequence[tuple[tuple[float, float, float], float, float]], cap: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """One blocked walk over the octant for each band (lo_eff, hi_eff] of
    ``bands``, given with its box's inverse squared sides.

    Yields, band by band, the number of points with eigenvalue <= lo_eff,
    and the eigenvalues (unsorted) of the points in the band with a (3, n)
    array of their (i1, i2, i3), in the order of their blocks, columns and
    i3.  The pieces of all bands share the runs of ``_piece_runs``, counted
    at both edges in one ``_count_ragged`` call a run, so a band may span
    runs and a run may hold pieces of many bands.  After each run, the bands
    it closes are assembled in groups of at most ``_BAND_POINTS`` points (a
    bigger band alone) and yielded; a pass holds the pieces and arrays of one
    run, one group and the columns of the one band still open.  Each value
    is computed with the float64 operations of the membership predicate, so
    it is the number the counters compare.  A slice wider than ``cap``
    columns, or more than ``cap`` points in a band, raises
    :class:`ResourceLimitError` before any of that band's point arrays
    exists; which band of a batch refuses first can differ from band by
    band, so callers redo a refused batch with ``_redone_alone``.  A pass
    whose runs leave a band unclosed raises RuntimeError, a fault that no
    caller redoes.
    """
    below, size, ncols = ([0] * len(bands) for _ in range(3))
    parts, done = [], 0
    for run, closed in _piece_runs(bands, cap):
        stats, part = _count_ragged(bands, run) if run else ([], _NO_COLUMNS)
        for (x, *_), (f, s, m) in zip(run, stats):
            below[x] += f
            size[x] += s
            ncols[x] += m
            if size[x] > cap:
                raise _band_cap(*bands[x][1:], cap)
        parts.append(part)
        if closed == done:
            continue
        c12, count, col = (p[0] if len(p) == 1 else np.concatenate(p, axis=-1) for p in zip(*parts))
        end = 0
        while done < closed:
            first, points = done, size[done]
            done += 1
            while done < closed and points + size[done] <= _BAND_POINTS:
                points += size[done]
                done += 1
            start, end = end, end + sum(ncols[first:done])
            q3 = [bands[x][0][2] for x in range(first, done)]
            q3 = q3[0] if len(set(q3)) == 1 else np.repeat(q3, size[first:done])
            values, triples = _band_points(c12[start:end], count[start:end], col[:, start:end], q3)
            at = 0
            for x in range(first, done):
                yield below[x], values[at : at + size[x]], triples[:, at : at + size[x]]
                at += size[x]
        if done < len(bands):
            # The open band's columns, copied so that the closed ones can go.
            parts = [tuple(p[..., end:].copy() for p in (c12, count, col))]
    if done < len(bands):
        # Not a refusal: _redone_alone must not redo the batch band by band.
        raise RuntimeError(f"internal error: the band pass closed {done} of {len(bands)} bands")


def _redone_alone(items: Sequence, batch, alone) -> Iterator:
    """What ``batch(items)`` yields, item by item.  After a refusal (or a
    bad argument) in a batch of several items, ``alone(item)`` for each item
    not yet yielded, in order: so a batch raises the refusal that its first
    refusing item raises alone."""
    done = 0
    try:
        for out in batch(items):
            yield out
            done += 1
    except (ResourceLimitError, ValueError):
        if len(items) == 1:
            raise
        for item in items[done:]:
            yield alone(item)


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

    One walk of the octant's pieces below the largest lambda counts them
    all.  A piece drops its columns whose i3 = 1 point lies above the
    largest edge, which count 0 at every edge; one ``_nmax_vec`` call counts
    the rest at the (m, 1) column of edges, in the order of ``lams``, and
    sums each row, or at a scalar edge when there is one lambda.  That call
    holds len(lams) rows of up to ``_BLOCK`` counts, so its memory grows
    with the number of lambda.
    """
    for lam in lams:
        if lam < 0.0 or not math.isfinite(lam):
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    edges = np.array(lams, dtype=np.float64) * (1.0 + COUNT_EPS)
    q1, q2, q3 = cuboid.inv_sq
    counts = [0] * len(lams)
    top = float(edges.max(initial=0.0))
    # One lambda takes a scalar edge, so the kernel does not broadcast in 2-D.
    edge = edges[:, None] if len(lams) > 1 else top
    for i1, rows, lo, hi in _octant_pieces(cuboid.inv_sq, top, DEFAULT_CANDIDATE_CAP):
        t1 = np.arange(i1, i1 + rows, dtype=np.float64)
        t2 = np.arange(lo, hi, dtype=np.float64)
        c = ((t1 * t1) * q1)[:, None] + (t2 * t2) * q2
        # A column whose i3 = 1 point lies above the top edge counts 0 at
        # every edge; c comes out flat, row by row.
        c = c[(c + q3) * PI_SQUARED <= top]
        if len(c):
            sums = np.atleast_1d(_nmax_vec(c, q3, edge).sum(axis=-1)).tolist()
            counts = [t + s for t, s in zip(counts, sums)]
    return counts


def count_upto(cuboid: Cuboid, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) at most ``lam``.

    Equals the number of positive lattice triples inside the closed ellipsoid
    E(lam); counting is inclusive at the boundary within ``COUNT_EPS``.
    """
    return counts_upto(cuboid, [lam])[0]


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


class _BandSearch:
    """The band of one box around the Weyl guess for its k-th eigenvalue.

    Each side of the band widens until the band holds the k-th eigenvalue and
    its whole DEGENERACY_RTOL window; with ``from_zero`` the band starts at 0.
    """

    __slots__ = ("inv", "k", "from_zero", "guess", "margin", "down", "up", "lo", "hi")

    def __init__(self, cuboid: Cuboid, k: int, from_zero: bool):
        self.inv, self.k, self.from_zero = cuboid.inv_sq, k, from_zero
        self.guess = _weyl_guess(cuboid, k)
        # The guess's relative error shrinks like k^(-1/3).  Over the search
        # domain the k-th eigenvalue lies at most about 69 % above the guess
        # (k = 1, on the box with a1 = a1_lower_bound() and a2 = a3), so
        # capped at 0.75 above it the first band holds the k-th eigenvalue on
        # every domain box and at most 8k points on the thinnest one (9k
        # capped at 1).  Off the domain it can miss (lambda_1 / guess tends to
        # 16/9 as a1 -> 0 with a2 = a3); a miss widens it to the margin capped
        # at 1, and only then doubles, so no band is wider than that margin's
        # would be.  Below the guess the cap stays 1, which puts lo at 0 for
        # k <= 8: a band from 0 needs no floor counts.
        self.margin = min(2.0 * k ** (-1.0 / 3.0), 1.0)
        self.down = self.margin
        self.up = min(self.margin, 0.75)

    def band(self) -> tuple[tuple[float, float, float], float, float]:
        """The box's current band (inv, lo, hi), for ``_octant_bands``."""
        self.lo = 0.0 if self.from_zero else max(self.guess * (1.0 - self.down), 0.0)
        self.hi = self.guess * (1.0 + self.up)
        return self.inv, self.lo, self.hi

    def select(self, below: int, values: np.ndarray) -> float | None:
        """The k-th value if the band holds it and its window; else widen the
        band and return None."""
        j = self.k - 1 - below
        value = float(np.partition(values, j)[j]) if 0 <= j < len(values) else math.nan
        if j < 0 or value * (1.0 - DEGENERACY_RTOL) <= self.lo:
            self.down *= 2.0
        elif j >= len(values) or value * (1.0 + DEGENERACY_RTOL) > self.hi:
            self.up = self.margin if self.up < self.margin else 2.0 * self.up
        else:
            return value
        return None


def _found(
    searches: list[_BandSearch], cap: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """(i, values, triples, k-th value) of each search i as its band holds
    its k-th eigenvalue; each round bands the searches not yet found in one
    ``_octant_bands`` pass."""
    todo = range(len(searches))
    while todo:
        missed = []
        bands = _octant_bands([searches[i].band() for i in todo], cap)
        for i, (below, values, triples) in zip(todo, bands):
            value = searches[i].select(below, values)
            if value is None:
                missed.append(i)
            else:
                yield i, values, triples, value
        todo = missed


def _band(
    cuboid: Cuboid, k: int, cap: int, from_zero: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """The band of ``_BandSearch`` that holds the k-th eigenvalue: its values
    (unsorted), its index triples and the k-th value."""
    ((_, values, triples, value),) = _found([_BandSearch(cuboid, k, from_zero)], cap)
    return values, triples, value


def _indices(triples: np.ndarray) -> list[tuple[int, int, int]]:
    """The columns of a (3, n) index array as (i1, i2, i3) tuples, in order."""
    return list(zip(*triples.tolist()))


def _point(values: np.ndarray, triples: np.ndarray, value: float) -> SpectralPoint:
    """``value`` with every triple of the band within DEGENERACY_RTOL of it,
    below it as well as above.  ``spectrum_points`` groups up from each
    point's first value instead, so the two can group a level split into
    values about DEGENERACY_RTOL apart differently."""
    near = values >= value * (1.0 - DEGENERACY_RTOL)
    near &= values <= value * (1.0 + DEGENERACY_RTOL)
    return SpectralPoint(value=value, indices=tuple(sorted(_indices(triples.compress(near, axis=1)))))


def kth_eigenvalues(
    cuboids: Sequence[Cuboid], ks: Sequence[int], candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[SpectralPoint]:
    """``kth_eigenvalue`` of each box of ``cuboids`` at its k in ``ks``.

    Every box's band is walked in one ``_octant_bands`` pass; a box whose
    band misses widens it, and only those boxes go round again.  Every k is
    checked first; a refused batch is redone box by box, so a refusal is the
    one that the first refusing box raises alone.
    """
    boxes = list(zip(cuboids, ks, strict=True))
    for _, k in boxes:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    return list(_redone_alone(
        boxes, lambda b: _kth_points(b, candidate_cap),
        lambda box: _kth_points([box], candidate_cap)[0]))


def _kth_points(boxes: list[tuple[Cuboid, int]], cap: int) -> list[SpectralPoint]:
    """The k-th spectral point of each (box, k), from one ``_found`` search."""
    points = [None] * len(boxes)
    for i, values, triples, value in _found(
            [_BandSearch(cuboid, k, from_zero=False) for cuboid, k in boxes], cap):
        points[i] = _point(values, triples, value)
    return points


def kth_eigenvalue(
    cuboid: Cuboid, k: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> SpectralPoint:
    """The k-th eigenvalue (1-based, with multiplicity) of ``cuboid``.

    Enumerates the eigenvalues in a band around the two-term Weyl guess,
    widened until it holds the k-th, and selects it with every lattice triple
    within DEGENERACY_RTOL.  Raises :class:`ResourceLimitError` when the band
    would hold more than ``candidate_cap`` candidates, which guards against
    pathologically thin boxes.  It is the one-box call of ``kth_eigenvalues``.
    """
    return kth_eigenvalues([cuboid], [k], candidate_cap)[0]


def spectrum_points(
    cuboid: Cuboid, k_max: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[SpectralPoint]:
    """Distinct spectral points covering eigenvalues 1..k_max.

    Points are sorted ascending; their multiplicities sum to at least
    ``k_max``.  Near-degenerate values merge per ``DEGENERACY_RTOL``: each
    point starts at the lowest value not yet covered, and holds the values
    from it up to it times 1 + DEGENERACY_RTOL, so no value is in two
    points.  ``kth_eigenvalue`` keeps its symmetric window (``_point``), so
    where a level splits into values about DEGENERACY_RTOL apart the two
    can group it differently.

    The sorted band is grouped ``_GROUP`` values at a time.  One
    ``searchsorted`` call gives the window end of every value in the chunk;
    the chain of ends from the chunk's first point gives the points that start
    in it, each window running from its point's first value to the next
    point's.  The index triples of the chunk's windows become Python tuples
    in one ``_indices`` call, and the chunk's points are made in one
    ``map``.  A window of one triple is taken as it is; where every window
    of the chunk is one triple (as on a generic box), the windows are the
    triples in order.  Only a window of several triples is sorted.
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
        tuples = _indices(triples.take(order[base:head], axis=1))
        if head - base == len(heads):
            # Each window holds its own point's value alone.
            windows = zip(tuples)
        else:
            windows = [
                (tuples[start - base],) if end - start == 1
                else tuple(sorted(tuples[start - base:end - base]))
                for start, end in zip(heads, [*heads[1:], head])
            ]
        points += map(SpectralPoint, values[heads].tolist(), windows)
    return points


def _cube_levels(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit cube's level counts up to a level m with N(pi^2 m) >= k_max:
    (hist, cum), hist[s] the positive triples with i1^2+i2^2+i3^2 == s and
    cum its running sum, N(pi^2 s).  nu_k is pi^2 times the first s with
    cum[s] >= k; m doubles from 8, so the arrays hold O(k_max^(2/3))
    entries."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m = 8
    while True:
        hist = _cube_octant_hist(m)
        cum = np.cumsum(hist)
        if cum[-1] >= k_max:
            return hist, cum
        m *= 2


def cube_spectrum_table(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-k data for the unit cube: (nu_k/pi^2, multiplicity, N(nu_k)).

    Arrays are 1-based on k (index 0 unused) and run up to ``k_max``.  All
    three are exact integers.  They are ``_cube_levels`` expanded per k, in
    O(k_max) memory.
    """
    hist, cum = _cube_levels(k_max)
    s = np.searchsorted(cum, np.arange(1, k_max + 1))
    table_m = np.concatenate(([0], s))
    table_theta = np.concatenate(([0], hist[s]))
    table_count = np.concatenate(([0], cum[s]))
    return table_m, table_theta, table_count
