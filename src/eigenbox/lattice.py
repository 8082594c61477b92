"""Full-lattice and sublattice counts on ellipsoids, and the arithmetic
functions (two- and three-square representation numbers, divisor counts,
cube multiplicities) that describe them.

The signed counters here share the membership predicate of
:mod:`eigenbox.spectrum`, so the symmetry decomposition

    T = 8*N + 4*(T+_x1 + T+_x2 + T+_x3) + 2*(f1 + f2 + f3) + 1

is an exact integer identity between independently enumerated counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectrum import (
    COUNT_EPS,
    DEFAULT_CANDIDATE_CAP,
    PI,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    _BLOCK,
    _VECTOR_MIN,
    _block_columns,
    _cube_cutoff,
    _nmax_scalar,
    _nmax_vec,
    count_upto,
)


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
        return (
            self.t_x1 - (4 * self.tp_x1 + 2 * self.f2 + 2 * self.f3 + 1),
            self.t_x2 - (4 * self.tp_x2 + 2 * self.f1 + 2 * self.f3 + 1),
            self.t_x3 - (4 * self.tp_x3 + 2 * self.f1 + 2 * self.f2 + 1),
        )

    def n_from_decomposition(self) -> Fraction:
        """N recovered from the signed counts, in exact rational arithmetic."""
        return (
            Fraction(self.t, 8)
            - Fraction(self.t_x1 + self.t_x2 + self.t_x3, 8)
            + Fraction(self.f1 + self.f2 + self.f3, 4)
            + Fraction(1, 4)
        )

    def consistent(self) -> bool:
        if self.octant_identity_residual() != 0:
            return False
        if any(r != 0 for r in self.plane_identity_residuals()):
            return False
        return self.n_from_decomposition() == self.n


@dataclass(frozen=True)
class RemainderExponents:
    """Best known remainder exponents for the sphere and circle counts.

    Recorded for reporting only; nothing here asserts them.
    """

    beta: float = 63.0 / 43.0
    theta: float = 131.0 / 208.0


def _axis_pairs(inv: tuple[float, float, float], axis: int) -> tuple[float, float]:
    # The in-plane inverse-square pair, in coordinate order, so the two-term
    # predicate matches the three-term one with the dropped term equal to 0.
    q1, q2, q3 = inv
    if axis == 1:
        return q2, q3
    if axis == 2:
        return q1, q3
    if axis == 3:
        return q1, q2
    raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


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


# Integer kernels (unit cube and gauss_* counts): cutoff m, then per-slice
# integer square roots.  Exact for any m.


def _disc_points_m(m: int) -> int:
    if m < 0:
        return 0
    total = 2 * math.isqrt(m) + 1
    for x in range(1, math.isqrt(m) + 1):
        total += 2 * (2 * math.isqrt(m - x * x) + 1)
    return total


def _sphere_points_m(m: int) -> int:
    if m < 0:
        return 0
    total = _disc_points_m(m)
    for z in range(1, math.isqrt(m) + 1):
        total += 2 * _disc_points_m(m - z * z)
    return total


def _quadrant_points_m(m: int) -> int:
    total = 0
    for x in range(1, math.isqrt(m) + 1):
        total += math.isqrt(m - x * x)
    return total


def count_full(cuboid: Cuboid, lam: float) -> int:
    """Integer lattice points (all signs and zeros) in the closed E(lam)."""
    lam_eff = _check_lambda(lam, full_lattice=cuboid)
    if cuboid.is_cube:
        return _sphere_points_m(_cube_cutoff(lam_eff))
    q1, q2, q3 = cuboid.inv_sq
    # Blocks of consecutive x1 slices: the rectangle of rows x1 .. x1+rows-1
    # by columns x2 = 0 .. width-1, width the extent of its first (widest)
    # row, flattened row by row so that it starts at its smallest c.  A
    # column past its row's end holds no point; a slice that alone fills a
    # block is cut into pieces of _BLOCK columns.
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


def _line_sum(qu: float, qv: float, lam_eff: float, n: int) -> int:
    """Sum over u = 1 .. n of _nmax_scalar(u^2*qu, qv, lam_eff).

    A line of at most _VECTOR_MIN points takes the scalar kernel, a longer
    one a vector kernel call per _BLOCK points.
    """
    if n <= _VECTOR_MIN:
        return sum(_nmax_scalar(float(u * u) * qu, qv, lam_eff) for u in range(1, n + 1))
    total = 0
    for lo in range(1, n + 1, _BLOCK):
        u = np.arange(lo, min(lo + _BLOCK, n + 1), dtype=np.float64)
        total += int(_nmax_vec((u * u) * qu, qv, lam_eff).sum())
    return total


def count_plane(cuboid: Cuboid, lam: float, axis: int) -> int:
    """Integer lattice points in the plane section of E(lam) through the
    origin orthogonal to ``axis``."""
    lam_eff = _check_lambda(lam)
    qu, qv = _axis_pairs(cuboid.inv_sq, axis)
    if cuboid.is_cube:
        return _disc_points_m(_cube_cutoff(lam_eff))
    # The v line through u = 0, then the lines u = +-1 .. +-n inside E(lam).
    n = _nmax_scalar(0.0, qu, lam_eff)
    return 2 * _nmax_scalar(0.0, qv, lam_eff) + 1 + 2 * (2 * _line_sum(qu, qv, lam_eff, n) + n)


def _quadrant_count(qu: float, qv: float, lam_eff: float) -> int:
    # The lines u = 1, 2, ... that hold a point with v >= 1.
    return _line_sum(qu, qv, lam_eff, _nmax_scalar(qv, qu, lam_eff))


def _axis_count(q: float, lam_eff: float) -> int:
    return _nmax_scalar(0.0, q, lam_eff)


def count_bundle(cuboid: Cuboid, lam: float) -> CountBundle:
    """All counting quantities at ``lam``; fields are mutually consistent."""
    lam_eff = _check_lambda(lam, full_lattice=cuboid)
    n = count_upto(cuboid, lam)
    if cuboid.is_cube:
        m = _cube_cutoff(lam_eff)
        t = _sphere_points_m(m)
        t_plane = _disc_points_m(m)
        tp = _quadrant_points_m(m)
        f = math.isqrt(m)
        return CountBundle(lam, n, t, t_plane, t_plane, t_plane, tp, tp, tp, f, f, f)
    inv = cuboid.inv_sq
    q1, q2, q3 = inv
    planes = [_axis_pairs(inv, axis) for axis in (1, 2, 3)]
    t_x = [count_plane(cuboid, lam, axis) for axis in (1, 2, 3)]
    tp_x = [_quadrant_count(qu, qv, lam_eff) for qu, qv in planes]
    floors = [_axis_count(q, lam_eff) for q in (q1, q2, q3)]
    return CountBundle(
        lam,
        n,
        count_full(cuboid, lam),
        t_x[0],
        t_x[1],
        t_x[2],
        tp_x[0],
        tp_x[1],
        tp_x[2],
        floors[0],
        floors[1],
        floors[2],
    )


# ---------------------------------------------------------------------------
# Gauss circle / sphere counts and representation numbers.
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


def gauss_circle_count(r) -> int:
    """Number of integer pairs with x1^2 + x2^2 <= r^2."""
    return _disc_points_m(_radius_cutoff(r))


def gauss_sphere_count(r) -> int:
    """Number of integer triples with x1^2 + x2^2 + x3^2 <= r^2."""
    return _sphere_points_m(_radius_cutoff(r))


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


def cube_multiplicity(m: int) -> int:
    """Positive integer triples with i1^2 + i2^2 + i3^2 == m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    total = 0
    for i1 in range(1, math.isqrt(max(m - 2, 0)) + 1):
        r1 = m - i1 * i1
        for i2 in range(1, math.isqrt(max(r1 - 1, 0)) + 1):
            rem = r1 - i2 * i2
            if rem >= 1:
                s = math.isqrt(rem)
                if s * s == rem:
                    total += 1
    return total


def sphere_counts_upto(m_max: int) -> np.ndarray:
    """Cumulative lattice counts: out[m] = #{x in Z^3 : |x|^2 <= m}.

    One geometric pass over all triples; independent of the representation
    formulas above, so it doubles as their batch cross-check.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    hist = np.zeros(m_max + 1, dtype=np.int64)
    top = math.isqrt(m_max)
    for z in range(0, top + 1):
        wz = 1 if z == 0 else 2
        mz = m_max - z * z
        for x in range(0, math.isqrt(mz) + 1):
            w = wz * (1 if x == 0 else 2)
            ymax = math.isqrt(mz - x * x)
            y = np.arange(0, ymax + 1, dtype=np.int64)
            vals = z * z + x * x + y * y
            weights = np.full(ymax + 1, 2 * w, dtype=np.int64)
            weights[0] = w
            np.add.at(hist, vals, weights)
    return np.cumsum(hist)
