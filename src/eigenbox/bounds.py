"""Named counting-function inequalities as evaluatable predicates.

Each bound exposes its two sides so callers can log the slack; a
:class:`BoundReport` packages one evaluation.  Gamma values appear only at
integer and half-integer arguments, so they are computed from factorial
closed forms rather than a special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .spectrum import PI_SQUARED, Cuboid

# Slack below -REPORT_EPS * max(1, |rhs|) marks a genuine violation; the
# bounds are exact in real arithmetic and often tight at small inputs.
REPORT_EPS = 1e-9


@dataclass(frozen=True)
class BoundQuery:
    """Parameters (y, a, n) of the lattice-sum bounds."""

    y: float
    a: float
    n: int

    def __post_init__(self) -> None:
        if self.y < 0.0 or not math.isfinite(self.y):
            raise ValueError(f"y must be finite and >= 0, got {self.y}")
        if self.a <= 0.0 or not math.isfinite(self.a):
            raise ValueError(f"a must be finite and > 0, got {self.a}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation: lhs <= rhs expected, or lhs == rhs for an
    ``exact`` report (an identity between integer counts)."""

    name: str
    inputs: dict[str, Any] = field(compare=False)
    lhs: float
    rhs: float
    exact: bool = False

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.exact:
            return self.slack == 0.0
        return self.slack >= -REPORT_EPS * max(1.0, abs(self.rhs))


def gamma_half(twice: int) -> float:
    """Gamma(twice/2) for positive integer ``twice``.

    Gamma(m) = (m-1)! and Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!).
    """
    if twice < 1:
        raise ValueError(f"argument must be positive, got {twice / 2}")
    if twice % 2 == 0:
        return float(math.factorial(twice // 2 - 1))
    m = (twice - 1) // 2
    return math.factorial(2 * m) * math.sqrt(math.pi) / (4**m * math.factorial(m))


def lemma_sum(query: BoundQuery) -> float:
    """sum_{i=1}^{floor(sqrt(y)/a)} (y - a^2 i^2)^(n/2); 0 when sqrt(y) < a."""
    y, a, n = query.y, query.a, query.n
    # y - a^2 i^2 falls with i, so its entries >= 0 are those of i <= m.
    m = int(math.sqrt(y) / a) + 2
    while m > 0 and y - (a * a) * float(m * m) < 0.0:
        m -= 1
    base = np.square(np.arange(1, m + 1, dtype=np.float64)) * (a * a)
    np.subtract(y, base, out=base)
    if n == 2:
        return float(base.sum())
    if n == 1:
        return float(np.sqrt(base, out=base).sum())
    return float((base ** (n / 2.0)).sum())


def lemma31_rhs(query: BoundQuery) -> float:
    """Three-term upper bound for :func:`lemma_sum`, valid for n in {1, 2}."""
    y, a, n = query.y, query.a, query.n
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    corner = (2.0 * a * n) ** (n / 2.0) / (n + 2.0) ** ((n + 2) / 2.0) * y ** (n / 4.0)
    return lemma32_rhs(query) - 0.5 * y ** (n / 2.0) + corner


def lemma32_rhs(query: BoundQuery) -> float:
    """Single-term integral upper bound for :func:`lemma_sum`, any n >= 1."""
    y, a, n = query.y, query.a, query.n
    gamma_ratio = gamma_half(n + 2) / gamma_half(n + 3)
    return math.sqrt(math.pi) / (2.0 * a) * gamma_ratio * y ** ((n + 1) / 2.0)


def lemma41_rhs(cuboid: Cuboid, lam: float) -> float:
    """Upper bound on the eigenvalue counting function at ``lam``."""
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    a1 = cuboid.a1
    return (
        lam**1.5 / (6.0 * PI_SQUARED)
        - lam / (8.0 * math.pi * a1)
        + math.sqrt(lam) / (16.0 * a1 * a1)
    )


def cube_eigenvalue_bound(k: int, nu_k: float) -> BoundReport:
    """nu_k^(3/2) <= 6 pi^2 k + 3 pi nu_k (1/2 + sqrt(3)) for the unit cube."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lhs = nu_k**1.5
    rhs = 6.0 * PI_SQUARED * k + 3.0 * math.pi * nu_k * (0.5 + math.sqrt(3.0))
    return BoundReport("cube_eigenvalue_bound", {"k": k, "nu_k": nu_k}, lhs, rhs)


def a1_lower_bound() -> float:
    """Hard floor 1/(8*(1/2 + sqrt(3))) for the shortest side of any
    eigenvalue-minimising box."""
    return 1.0 / (8.0 * (0.5 + math.sqrt(3.0)))


def polya_lower_bound(k: int) -> float:
    """(6 pi^2 k)^(2/3), a lower bound for the k-th eigenvalue of any
    unit-volume box."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (6.0 * PI_SQUARED * k) ** (2.0 / 3.0)

