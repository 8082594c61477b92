"""Full-lattice and sublattice counts on ellipsoids, and the arithmetic
functions (two- and three-square representation numbers, divisor counts)
that describe them.

The signed counters here share the membership predicate of
:mod:`eigenbox.spectrum`, so the symmetry decomposition

    T = 8*N + 4*(T+_x1 + T+_x2 + T+_x3) + 2*(f1 + f2 + f3) + 1

is an exact integer identity between independently enumerated counts.
Every box, the unit cube included, takes the same float counters: the
cube's sums are exact integers below 2^53 and pi^2 * float(s) is monotone
in s, so its counts are the integer counts.  Only ``_cube_levels`` in
:mod:`eigenbox.spectrum` still counts the cube in integer arithmetic.

``count_bundles`` counts many boxes at once, as the identity suite of
``verify`` does: the six line families (T_x, T+) of all boxes in one ragged
pass of vector kernel calls and their full lattices in another, while N of
all boxes comes from one pass of the octant band walk of
:mod:`eigenbox.spectrum` (``_octant_bands``).  The walk shares only the
kernel and the run packer ``_runs`` with those passes and lists its own
pieces: the identity checks it against an independent enumeration, and a
packer fault still fails it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectrum import (
    COUNT_EPS,
    DEFAULT_CANDIDATE_CAP,
    PI,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    UNIT_CUBE,
    _BLOCK,
    _block_columns,
    _nmax_scalar,
    _nmax_vec,
    _octant_bands,
    _redone_alone,
    _runs,
)

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class CountBundle:
    """Every counting quantity at one lambda, plus exact consistency checks.

    ``n`` counts the open positive octant, ``t`` the full integer lattice,
    ``t_xi`` the coordinate-plane sections, ``tp_xi`` their open positive
    quadrants, and ``fi`` the positive axis points (the floor terms).
    """

    lam: float
    n: int
    t: int
    t_x1: int
    t_x2: int
    t_x3: int
    tp_x1: int
    tp_x2: int
    tp_x3: int
    f1: int
    f2: int
    f3: int

    def octant_identity_residual(self) -> int:
        rhs = (
            8 * self.n
            + 4 * (self.tp_x1 + self.tp_x2 + self.tp_x3)
            + 2 * (self.f1 + self.f2 + self.f3)
            + 1
        )
        return self.t - rhs

    def plane_identity_residuals(self) -> tuple[int, int, int]:
        """T_x - (4 T+_x + 2 f_u + 2 f_v + 1) for each coordinate plane.

        ``count_plane`` sums the plane's v lines and ``_quadrant_count`` its
        u lines, so each residual is 4 times the column count of the open
        quadrant less its row count: a check of one enumeration against the
        other.
        """
        return (
            self.t_x1 - (4 * self.tp_x1 + 2 * self.f2 + 2 * self.f3 + 1),
            self.t_x2 - (4 * self.tp_x2 + 2 * self.f1 + 2 * self.f3 + 1),
            self.t_x3 - (4 * self.tp_x3 + 2 * self.f1 + 2 * self.f2 + 1),
        )

    def n_from_decomposition(self) -> Fraction:
        """N recovered from the signed counts, in exact rational arithmetic."""
        from fractions import Fraction

        return (
            Fraction(self.t, 8)
            - Fraction(self.t_x1 + self.t_x2 + self.t_x3, 8)
            + Fraction(self.f1 + self.f2 + self.f3, 4)
            + Fraction(1, 4)
        )

    def consistent(self) -> bool:
        """The octant identity, the plane identities and N recovered from the
        decomposition all hold.

        The octant identity compares the octant walk with the full-lattice,
        quadrant and axis counts, and each plane identity the column and row
        counts of its quadrant.  With both zero, N from the decomposition
        equals ``n`` exactly.
        """
        if self.octant_identity_residual() != 0:
            return False
        if any(r != 0 for r in self.plane_identity_residuals()):
            return False
        return self.n_from_decomposition() == self.n


# The (u, v) coordinate indices of the plane orthogonal to axis 1, 2 and 3.
_PLANE_AXES = ((1, 2), (0, 2), (0, 1))


def _axis_pairs(inv: tuple[float, float, float], axis: int) -> tuple[float, float]:
    # The in-plane inverse-square pair, in coordinate order, so the two-term
    # predicate matches the three-term one with the dropped term equal to 0.
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return tuple(inv[i] for i in _PLANE_AXES[axis - 1])


def _check_lambda(lam: float, full_lattice: Cuboid | None = None) -> float:
    """lam with the counting tolerance; for a full-lattice count on a box,
    refuses more (x1, x2) columns, about (a1 r + 1)(a2 r + 1) for
    r = sqrt(lam)/pi, than DEFAULT_CANDIDATE_CAP."""
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if full_lattice is not None:
        r = math.sqrt(lam) / PI
        columns = (full_lattice.a1 * r + 1.0) * (full_lattice.a2 * r + 1.0)
        if columns > DEFAULT_CANDIDATE_CAP:
            raise ResourceLimitError(
                f"counting at lambda={lam:.6g} visits about {columns:.3g} columns, "
                f"more than the candidate cap {DEFAULT_CANDIDATE_CAP}"
            )
    return lam * (1.0 + COUNT_EPS)


def _count_pieces(pieces: list[tuple], owners: int, points) -> list[int]:
    """Exact sums of ``points(t1, t2, c, g, lam_eff)`` per owner over pieces
    (owner, x1, rows, lo, hi, q1, q2, q3, lam_eff), the rectangles x1 ..
    x1+rows-1 by x2 = lo .. hi-1, c = x1^2*q1 + x2^2*q2 and g = _nmax_vec(c,
    q3, lam_eff): one call per run, a row broadcast for a run of one piece."""
    totals = [0] * owners
    if not pieces:
        return totals
    owner, x1, rows, lo, hi, q1, q2, q3, lam_eff = (np.array(col) for col in zip(*pieces))
    size = rows * (hi - lo)
    c = (x1 * x1) * q1 + (lo * lo) * q2
    guess = np.sqrt(np.maximum((lam_eff / PI_SQUARED - c) / q3, 0.0))
    for run, _ in _runs(zip(range(len(size)), size.tolist(), guess.tolist())):
        i, j = run[0], run[-1] + 1
        starts = np.cumsum(size[i:j]) - size[i:j]
        if j == i + 1:
            p, t1 = i, np.arange(x1[i], x1[i] + rows[i], dtype=np.float64)[:, None]
            t2 = np.arange(lo[i], hi[i], dtype=np.float64)
        else:
            p = np.repeat(np.arange(i, j), size[i:j])
            r, k = np.divmod(np.arange(len(p)) - starts[p - i], (hi - lo)[p])
            t1, t2 = (x1[p] + r).astype(np.float64), (lo[p] + k).astype(np.float64)
        c = (t1 * t1) * q1[p] + (t2 * t2) * q2[p]
        g = _nmax_vec(c.ravel(), q3[p], lam_eff[p]).reshape(c.shape)
        sums = np.add.reduceat(points(t1, t2, c, g, lam_eff[p]).ravel(), starts)
        for b, s in zip(owner[i:j].tolist(), sums.tolist()):
            totals[b] += s
    return totals


def _line_sums(lines: list[tuple[float, float, float, int]]) -> list[int]:
    """Per family (qu, qv, lam_eff, n) of ``lines``, the sum over u = 1 .. n
    of _nmax_scalar(u^2*qu, qv, lam_eff): the points with v >= 1 of the lines
    u = 1 .. n (swap qu and qv for the v lines), in pieces of _BLOCK lines."""
    pieces = [(f, 0, 1, lo, min(lo + _BLOCK, n + 1), 0.0, qu, qv, lam_eff)
              for f, (qu, qv, lam_eff, n) in enumerate(lines) for lo in range(1, n + 1, _BLOCK)]
    return _count_pieces(pieces, len(lines), lambda t1, t2, c, g, lam_eff: g)


def _full_points(t1, t2, c, g, lam_eff):
    # Each column's 2 g + 1 points per sign of x1 and x2; in place, as copies cost more.
    g *= 2
    g += 1
    g *= np.where(t1 == 0.0, 1, 2)
    g *= np.where(t2 == 0.0, 1, 2)
    g[PI_SQUARED * c > lam_eff] = 0
    return g


def _full_counts(pairs: Sequence[tuple[Cuboid, float]]) -> list[int]:
    """``count_full`` for each (cuboid, lam) of ``pairs``, in one pass over
    blocks of x1 slices by the columns of their first (widest) row, a slice
    that alone fills a block cut into pieces of _BLOCK columns."""
    pieces = []
    for b, (cuboid, lam) in enumerate(pairs):
        lam_eff = _check_lambda(lam, full_lattice=cuboid)
        q1, q2, q3 = cuboid.inv_sq
        top = _nmax_scalar(0.0, q1, lam_eff)
        x1 = 0
        while x1 <= top:
            c1 = float(x1 * x1) * q1
            width = _nmax_scalar(c1, q2, lam_eff) + 1
            rows = max(1, min(_block_columns(c1, q3, lam_eff) // width, top + 1 - x1))
            step = _BLOCK // rows
            pieces += [(b, x1, rows, lo, min(lo + step, width), q1, q2, q3, lam_eff)
                       for lo in range(0, width, step)]
            x1 += rows
    return _count_pieces(pieces, len(pairs), _full_points)


def count_full(cuboid: Cuboid, lam: float) -> int:
    """Integer lattice points (all signs and zeros) in the closed E(lam)."""
    return _full_counts([(cuboid, lam)])[0]


def _v_lines(qu: float, qv: float, lam: float, lam_eff: float) -> tuple[float, float, float, int]:
    """A plane's lines v = 1 .. m that hold a point with u >= 1; v is the
    longer side, so more than DEFAULT_CANDIDATE_CAP raise ResourceLimitError."""
    m = _nmax_scalar(qu, qv, lam_eff)
    if m > DEFAULT_CANDIDATE_CAP:
        raise ResourceLimitError(
            f"the plane count at lambda={lam:.6g} sums {m} lines, "
            f"more than the candidate cap {DEFAULT_CANDIDATE_CAP}"
        )
    return qv, qu, lam_eff, m


def count_plane(cuboid: Cuboid, lam: float, axis: int) -> int:
    """Integer lattice points in the plane section of E(lam) through the
    origin orthogonal to ``axis``, summed over the lines of constant v (the
    transpose of the u lines of ``_quadrant_count``)."""
    lam_eff = _check_lambda(lam)
    qu, qv = _axis_pairs(cuboid.inv_sq, axis)
    lines = _v_lines(qu, qv, lam, lam_eff)
    f_u, f_v = _nmax_scalar(0.0, qu, lam_eff), _nmax_scalar(0.0, qv, lam_eff)
    (s,) = _line_sums([lines])
    # 2 f_u + 1 points on the u axis, f_v on each half of the v axis, 2 s off.
    return 2 * f_u + 1 + 2 * (2 * s + f_v)


def _quadrant_count(qu: float, qv: float, lam_eff: float) -> int:
    # The lines u = 1, 2, ... that hold a point with v >= 1.
    return _line_sums([(qu, qv, lam_eff, _nmax_scalar(qv, qu, lam_eff))])[0]


def count_bundles(cuboids: Sequence[Cuboid], lams: Sequence[float]) -> list[CountBundle]:
    """``count_bundle`` for each box of ``cuboids`` at its lambda in ``lams``:
    per box its column cap; N of all boxes in one octant pass of
    ``_octant_bands``; per box its plane caps; then the six line families
    (T_x, T+) of all boxes in one pass, and their full lattices in another.
    A refused batch is redone box by box, so a refusal is the one that the
    first refusing box raises alone."""
    pairs = list(zip(cuboids, lams, strict=True))
    return list(_redone_alone(pairs, _bundles, lambda pair: _bundles([pair])[0]))


def _bundles(pairs: list[tuple[Cuboid, float]]) -> list[CountBundle]:
    lam_effs = [_check_lambda(lam, full_lattice=cuboid) for cuboid, lam in pairs]
    # N by the octant walk, which shares only the kernel and the run packer
    # with the lattice passes below: the identity checks one against another.
    octant = [(cuboid.inv_sq, lam_eff, lam_eff) for (cuboid, _), lam_eff in zip(pairs, lam_effs)]
    ns = [n for n, _, _ in _octant_bands(octant, DEFAULT_CANDIDATE_CAP)]
    heads, lines = [], []
    for (cuboid, lam), lam_eff, n in zip(pairs, lam_effs, ns, strict=True):
        planes = [_axis_pairs(cuboid.inv_sq, axis) for axis in (1, 2, 3)]
        lines += [_v_lines(qu, qv, lam, lam_eff) for qu, qv in planes]
        lines += [(qu, qv, lam_eff, _nmax_scalar(qv, qu, lam_eff)) for qu, qv in planes]
        heads.append((lam, n, [_nmax_scalar(0.0, q, lam_eff) for q in cuboid.inv_sq]))
    sums = _line_sums(lines)
    bundles = []
    for b, ((lam, n, f), t) in enumerate(zip(heads, _full_counts(pairs), strict=True)):
        t_x = [2 * f[i] + 1 + 2 * (2 * s + f[j]) for (i, j), s in zip(_PLANE_AXES, sums[6 * b :])]
        bundles.append(CountBundle(lam, n, t, *t_x, *sums[6 * b + 3 : 6 * b + 6], *f))
    return bundles


def count_bundle(cuboid: Cuboid, lam: float) -> CountBundle:
    """All counting quantities at ``lam``; fields are mutually consistent."""
    return count_bundles([cuboid], [lam])[0]


# ---------------------------------------------------------------------------
# Gauss sphere counts and representation numbers.
# ---------------------------------------------------------------------------


def _radius_cutoff(r) -> int:
    """Largest integer cutoff m with the ball of radius r containing all
    lattice points of squared norm <= m.

    Integer radii are handled exactly; floats get the same inclusive relative
    tolerance as the spectral counters, so sqrt(M) round-trips to cutoff M.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if isinstance(r, int):
        return r * r
    return int((r * r) * (1.0 + COUNT_EPS))


def gauss_sphere_count(r) -> int:
    """Number of integer triples with x1^2 + x2^2 + x3^2 <= r^2.

    The full-lattice count of the unit cube at lambda = pi^2 m, m the cutoff
    of r: exact, since the cube's float sums are exact integers.  Like
    ``count_full`` it raises ResourceLimitError past DEFAULT_CANDIDATE_CAP
    (x1, x2) columns, about (r + 1)^2, so for r above about 4,900.
    """
    return count_full(UNIT_CUBE, PI_SQUARED * _radius_cutoff(r))


def r2(n: int) -> int:
    """Representations of n as an ordered sum of two integer squares.

    Evaluates the character sum 4 * sum_{d | n, d odd} (-1)^((d-1)/2) one
    prime factor at a time (trial division); r2(0) == 1 for the origin.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    while n % 2 == 0:
        n //= 2
    total = 4
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if d % 4 == 3:
                if e % 2:
                    return 0
            else:
                total *= e + 1
        d += 2
    if n > 1:
        if n % 4 == 3:
            return 0
        total *= 2
    return total


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[i] = smallest prime factor of i, for 0 <= i <= limit."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return spf


def r2_batch(limit: int) -> np.ndarray:
    """r2(n) for all 0 <= n <= limit, via a smallest-prime-factor sieve."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    spf = smallest_prime_factors(limit)
    out = np.zeros(limit + 1, dtype=np.int64)
    out[0] = 1
    for n in range(1, limit + 1):
        m = n
        while m % 2 == 0:
            m //= 2
        total = 4
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if p % 4 == 3:
                if e % 2:
                    total = 0
                    break
            else:
                total *= e + 1
        out[n] = total
    return out


def r3(d: int) -> int:
    """Representations of d as an ordered sum of three integer squares.

    Computed as the plain sum of r2(d - z^2) over integer z with z^2 <= d;
    the z slice through the origin uses r2(0) == 1, so r3(0) == 1.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    total = r2(d)
    for z in range(1, math.isqrt(d) + 1):
        total += 2 * r2(d - z * z)
    return total


def divisor_count(n: int) -> int:
    """Number of divisors of n, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += 1 if d * d == n else 2
    return total
