"""Batch verification suites: seeded sampling of the named inequalities and
exact identities, producing :class:`~eigenbox.bounds.BoundReport` rows.

These back the ``verify`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable

from . import lattice
from .bounds import (
    BoundQuery,
    BoundReport,
    a1_lower_bound,
    cube_eigenvalue_bound,
    lemma31_rhs,
    lemma32_rhs,
    lemma41_rhs,
    lemma_sum,
    polya_lower_bound,
)
from .spectrum import (
    PI_SQUARED,
    Cuboid,
    counts_upto,
    cube_spectrum_table,
    kth_eigenvalues,
)

OMEGA_3 = 4.0 * math.pi / 3.0


def sample_cuboid(rng: random.Random) -> Cuboid:
    """A box drawn uniformly from the optimiser's search domain."""
    a1 = rng.uniform(a1_lower_bound(), 1.0)
    a2 = rng.uniform(a1, math.sqrt(1.0 / a1))
    return Cuboid.from_sides(a1, a2)


def _sample_query(rng: random.Random, n_choices: Iterable[int]) -> BoundQuery:
    y = rng.uniform(0.0, 1.0e6)
    a = 10.0 ** rng.uniform(-2.0, 2.0)
    n = rng.choice(list(n_choices))
    return BoundQuery(y=y, a=a, n=n)


def _lemma_suite(
    name: str,
    n_choices: Iterable[int],
    rhs: Callable[[BoundQuery], float],
    samples: int,
    seed: int,
) -> list[BoundReport]:
    rng = random.Random(seed)
    reports = []
    for _ in range(samples):
        q = _sample_query(rng, n_choices)
        reports.append(
            BoundReport(name, {"y": q.y, "a": q.a, "n": q.n}, lemma_sum(q), rhs(q))
        )
    return reports


def lemma31_suite(samples: int, seed: int = 0) -> list[BoundReport]:
    return _lemma_suite("lemma31", (1, 2), lemma31_rhs, samples, seed)


def lemma32_suite(samples: int, seed: int = 0) -> list[BoundReport]:
    return _lemma_suite("lemma32", range(1, 7), lemma32_rhs, samples, seed)


def lemma41_suite(
    n_cuboids: int, seed: int = 0, lam_per_cuboid: int = 10, lam_max: float = 1.0e4
) -> list[BoundReport]:
    rng = random.Random(seed)
    reports = []
    for _ in range(n_cuboids):
        c = sample_cuboid(rng)
        lams = [rng.uniform(0.0, lam_max) for _ in range(lam_per_cuboid)]
        for lam, n in zip(lams, counts_upto(c, lams)):
            reports.append(
                BoundReport(
                    "lemma41",
                    {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                    float(n),
                    lemma41_rhs(c, lam),
                )
            )
    return reports


def identity_suite(
    samples: int, seed: int = 0, lam_max: float = 1.0e4
) -> list[BoundReport]:
    """Exact symmetry decomposition T = 8N + 4*sum T+ + 2*sum floor + 1.

    lhs is T from the full-lattice counter, rhs the reassembled right side;
    any nonzero residual is a bug, so a report passes only with slack
    exactly 0 (T is an integer below 2^53, exact in float).  The boxes are
    drawn first and counted in one ``count_bundles`` call.
    """
    rng = random.Random(seed)
    draws = [(sample_cuboid(rng), rng.uniform(0.0, lam_max)) for _ in range(samples)]
    bundles = lattice.count_bundles([c for c, _ in draws], [lam for _, lam in draws])
    return [
        BoundReport(
            "identity",
            {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
            float(b.t),
            float(b.t - b.octant_identity_residual()),
            exact=True,
        )
        for (c, lam), b in zip(draws, bundles, strict=True)
    ]


def cube_chain_suite(k_max: int) -> list[BoundReport]:
    """Unit-cube counting chain for every k <= k_max.

    Per k: k <= N(nu_k) <= k + Theta_k - 1 (exact integers), the Gauss octant
    lower bound on N(nu_k), and the eigenvalue growth bound on nu_k^{3/2}.
    """
    table_m, table_theta, table_count = cube_spectrum_table(k_max)
    reports = []
    for k in range(1, k_max + 1):
        m = int(table_m[k])
        theta = int(table_theta[k])
        n_at_nu = int(table_count[k])
        nu = PI_SQUARED * float(m)
        reports.append(
            BoundReport("cube_chain_lower", {"k": k, "m": m}, float(k), float(n_at_nu))
        )
        reports.append(
            BoundReport(
                "cube_chain_upper",
                {"k": k, "m": m, "theta": theta},
                float(n_at_nu),
                float(k + theta - 1),
            )
        )
        gauss = (OMEGA_3 / 8.0) * max(math.sqrt(nu) / math.pi - math.sqrt(3.0), 0.0) ** 3
        reports.append(
            BoundReport("gauss_octant", {"k": k, "m": m}, gauss, float(n_at_nu))
        )
        reports.append(cube_eigenvalue_bound(k, nu))
    return reports


def polya_suite(samples: int, seed: int = 0, k_max: int = 1000) -> list[BoundReport]:
    """Polya's lower bound on lambda_k at seeded (box, k) pairs; the pairs are
    drawn first and their lambda_k found in one ``kth_eigenvalues`` call."""
    rng = random.Random(seed)
    draws = [(sample_cuboid(rng), rng.randint(1, k_max)) for _ in range(samples)]
    points = kth_eigenvalues([c for c, _ in draws], [k for _, k in draws])
    return [
        BoundReport(
            "polya",
            {"a1": c.a1, "a2": c.a2, "a3": c.a3, "k": k},
            polya_lower_bound(k),
            point.value,
        )
        for (c, k), point in zip(draws, points, strict=True)
    ]


def remainder_constant_estimates(
    cuboid: Cuboid,
    lam_values: Iterable[float],
    exponents: lattice.RemainderExponents = lattice.RemainderExponents(),
) -> dict[str, float]:
    """Empirical scale of the sphere- and circle-count remainders.

    Returns the largest observed |T - main term| / lam^(beta/2) and the
    analogue for the x1 plane section with exponent theta.  Descriptive
    statistics only: the true constants exist but are not known analytically,
    so nothing here is a pass/fail criterion.  T and T_x1 take one pass each.
    """
    pairs = [(cuboid, lam) for lam in lam_values if not lam <= 0.0]
    c_hat = d_hat = 0.0
    a2a3 = cuboid.a2 * cuboid.a3
    for (_, lam), t, t1 in zip(pairs, lattice._full_counts(pairs), lattice._plane_counts(pairs, 1)):
        main3 = 4.0 / (3.0 * PI_SQUARED) * lam**1.5
        c_hat = max(c_hat, abs(t - main3) / lam ** (exponents.beta / 2.0))
        main2 = a2a3 / math.pi * lam
        d_hat = max(d_hat, abs(t1 - main2) / lam ** (exponents.theta / 2.0))
    return {
        "c_hat": c_hat,
        "d_hat": d_hat,
        "beta": exponents.beta,
        "theta": exponents.theta,
    }


# Each suite as a function of (samples, seed), in ``verify --suite all``
# order; ``samples`` is the k range for cube-chain.
_SUITES = {
    "lemma31": lemma31_suite,
    "lemma32": lemma32_suite,
    "lemma41": lemma41_suite,
    "identity": identity_suite,
    "cube-chain": lambda samples, seed: cube_chain_suite(samples),
    "polya": polya_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, samples: int, seed: int = 0) -> list[BoundReport]:
    """Dispatch one named suite; ``samples`` is the k range for cube-chain."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](samples, seed)
