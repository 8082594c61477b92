"""Brute-force Dirichlet eigenvalues and lattice counts of a box.

The eigenvalues of the box with sides (a1, a2, a3) are
pi^2 (i1^2/a1^2 + i2^2/a2^2 + i3^2/a3^2) over positive integer triples.  This
module enumerates every triple of a bounding index grid with one numpy
broadcast and sorts or counts the result.  It imports nothing from
``eigenbox``, so the benchmark's output checks are a second route to each
number, not a copy of the program's arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

PI2 = math.pi**2


def eigenvalue(sides, triple) -> float:
    """pi^2 (i1^2/a1^2 + i2^2/a2^2 + i3^2/a3^2) for one index triple."""
    return PI2 * sum((i / a) ** 2 for i, a in zip(triple, sides))


def _grid_values(sides, lam: float, start: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # Indices start..n per axis with n the largest i for which the axis term
    # alone stays <= lam, so every triple with value <= lam is in the grid.
    axes = []
    for a in sides:
        n = int(a * math.sqrt(lam) / math.pi) + 1
        axes.append(np.arange(start, n + 1, dtype=np.float64))
    i1, i2, i3 = np.ix_(*axes)
    a1, a2, a3 = sides
    values = PI2 * ((i1 / a1) ** 2 + (i2 / a2) ** 2 + (i3 / a3) ** 2)
    return values, (i1, i2, i3)


def count_octant(sides, lam: float) -> int:
    """N(lam): positive triples whose eigenvalue is <= lam."""
    values, _ = _grid_values(sides, lam, 1)
    return int(np.count_nonzero(values <= lam))


def count_lattice(sides, lam: float) -> int:
    """T(lam): integer triples of any sign, zeros included, with value <= lam."""
    values, axes = _grid_values(sides, lam, 0)
    # A point with j nonzero coordinates stands for 2^j points of Z^3.
    weight = 1
    for i in axes:
        weight = weight * np.where(i > 0, 2, 1)
    return int((np.broadcast_to(weight, values.shape) * (values <= lam)).sum())


def lowest(sides, k: int) -> np.ndarray:
    """The k smallest eigenvalues with multiplicity, ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # Weyl's law N(lam) ~ lam^(3/2) / (6 pi^2) for unit volume; double from
    # there until the grid holds at least k eigenvalues.
    volume = sides[0] * sides[1] * sides[2]
    lam = (6.0 * PI2 * k / volume) ** (2.0 / 3.0)
    while True:
        values, _ = _grid_values(sides, lam, 1)
        inside = values[values <= lam]
        if inside.size >= k:
            return np.sort(inside)[:k]
        lam *= 2.0


def cube_levels(k: int) -> np.ndarray:
    """m_1 <= ... <= m_k with pi^2 m_j the j-th eigenvalue of the unit cube.

    Pure integer enumeration of i1^2 + i2^2 + i3^2 over positive triples.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 2
    while True:
        i = np.arange(1, n + 1, dtype=np.int64)
        sums = (i[:, None, None] ** 2 + i[None, :, None] ** 2 + i[None, None, :] ** 2).ravel()
        # Every triple with sum <= n^2 + 2 has all indices <= n.
        complete = np.sort(sums[sums <= n * n + 2])
        if complete.size >= k:
            return complete[:k]
        n *= 2
