"""Independent lattice oracles for the cube and the sphere.

``cube_multiplicity`` and ``sphere_counts_upto`` enumerate triples directly,
sharing no code with the representation formulas of :mod:`eigenbox.lattice`
(``r3``, ``gauss_sphere_count``), so the tests use them as a second route.
"""

import math

import numpy as np


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
    formulas, so it doubles as their batch cross-check.
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
