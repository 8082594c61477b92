"""Batch verification suites: seeded sampling of the named inequalities and
exact identities, producing :class:`~eigenbox.bounds.BoundReport` rows.

A suite makes its reports about ``CHUNK`` at a time: ``suite_chunks``
yields them, and ``verify`` writes and counts each chunk before the next is
made, so its memory does not grow with the number of samples.  A sampled
suite's chunks draw in turn from one ``random.Random``, so its draws and
reports do not depend on the chunk size.  ``identity`` counts a chunk's
boxes in one ``count_bundles`` call, ``polya`` finds a chunk's eigenvalues
in one ``kth_eigenvalues`` call, and every k of ``cube-chain`` reads one
``cube_spectrum_table``.  ``run_suite`` and the ``*_suite`` functions join
the chunks in one list.

These back the ``verify`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, islice

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


# Reports a suite makes per chunk, about: a suite that makes r reports a
# draw draws CHUNK // r at a time.
CHUNK = 1024
_Chunks = Iterator[list[BoundReport]]


def _chunks(reports: Callable[[int], list[BoundReport]], draws: int, per_draw: int = 1) -> _Chunks:
    """``reports(n)`` on consecutive n of CHUNK // per_draw draws, the last n
    what is left, that sum to ``draws``."""
    step = max(1, CHUNK // per_draw)
    for done in range(0, draws, step):
        yield reports(min(step, draws - done))


def _lemma_chunks(name: str, n_choices: Iterable[int], rhs: Callable[[BoundQuery], float],
                  samples: int, seed: int = 0) -> _Chunks:
    rng = random.Random(seed)

    def reports(draws: int) -> list[BoundReport]:
        queries = [_sample_query(rng, n_choices) for _ in range(draws)]
        return [BoundReport(name, {"y": q.y, "a": q.a, "n": q.n}, lemma_sum(q), rhs(q))
                for q in queries]

    return _chunks(reports, samples)


def _lemma41_chunks(n_cuboids: int, seed: int = 0, lam_per_cuboid: int = 10,
                    lam_max: float = 1.0e4) -> _Chunks:
    rng = random.Random(seed)

    def reports(boxes: int) -> list[BoundReport]:
        out = []
        for _ in range(boxes):
            c = sample_cuboid(rng)
            lams = [rng.uniform(0.0, lam_max) for _ in range(lam_per_cuboid)]
            out += [BoundReport("lemma41", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                                float(n), lemma41_rhs(c, lam))
                    for lam, n in zip(lams, counts_upto(c, lams))]
        return out

    return _chunks(reports, n_cuboids, lam_per_cuboid)


def _identity_chunks(samples: int, seed: int = 0, lam_max: float = 1.0e4) -> _Chunks:
    rng = random.Random(seed)

    def reports(n: int) -> list[BoundReport]:
        draws = [(sample_cuboid(rng), rng.uniform(0.0, lam_max)) for _ in range(n)]
        bundles = lattice.count_bundles([c for c, _ in draws], [lam for _, lam in draws])
        return [BoundReport("identity", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                            float(b.t), float(b.t - b.octant_identity_residual()), exact=True)
                for (c, lam), b in zip(draws, bundles, strict=True)]

    return _chunks(reports, samples)


def _cube_chain_chunks(k_max: int) -> _Chunks:
    table_m, table_theta, table_count = cube_spectrum_table(k_max)
    ks = iter(range(1, k_max + 1))

    def reports(n: int) -> list[BoundReport]:
        out = []
        for k in islice(ks, n):
            m, theta, n_at_nu = int(table_m[k]), int(table_theta[k]), int(table_count[k])
            nu = PI_SQUARED * float(m)
            gauss = (OMEGA_3 / 8.0) * max(math.sqrt(nu) / math.pi - math.sqrt(3.0), 0.0) ** 3
            out += [
                BoundReport("cube_chain_lower", {"k": k, "m": m}, float(k), float(n_at_nu)),
                BoundReport("cube_chain_upper", {"k": k, "m": m, "theta": theta},
                            float(n_at_nu), float(k + theta - 1)),
                BoundReport("gauss_octant", {"k": k, "m": m}, gauss, float(n_at_nu)),
                cube_eigenvalue_bound(k, nu),
            ]
        return out

    return _chunks(reports, k_max, 4)


def _polya_chunks(samples: int, seed: int = 0, k_max: int = 1000) -> _Chunks:
    rng = random.Random(seed)

    def reports(n: int) -> list[BoundReport]:
        draws = [(sample_cuboid(rng), rng.randint(1, k_max)) for _ in range(n)]
        points = kth_eigenvalues([c for c, _ in draws], [k for _, k in draws])
        return [BoundReport("polya", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "k": k},
                            polya_lower_bound(k), point.value)
                for (c, k), point in zip(draws, points, strict=True)]

    return _chunks(reports, samples)


# Each suite's chunks as a function of (samples, seed), in ``verify --suite
# all`` order; ``samples`` is the k range for cube-chain.
_SUITES = {
    "lemma31": partial(_lemma_chunks, "lemma31", (1, 2), lemma31_rhs),
    "lemma32": partial(_lemma_chunks, "lemma32", range(1, 7), lemma32_rhs),
    "lemma41": _lemma41_chunks,
    "identity": _identity_chunks,
    "cube-chain": lambda samples, seed: _cube_chain_chunks(samples),
    "polya": _polya_chunks,
}
SUITE_NAMES = tuple(_SUITES)


def suite_chunks(name: str, samples: int, seed: int = 0) -> _Chunks:
    """The reports of one named suite, in chunks of about CHUNK reports, made
    one chunk at a time; ``samples`` is the k range for cube-chain."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](samples, seed)


def run_suite(name: str, samples: int, seed: int = 0) -> list[BoundReport]:
    """The reports of one named suite, its chunks joined in one list."""
    return list(chain.from_iterable(suite_chunks(name, samples, seed)))


lemma31_suite = partial(run_suite, "lemma31")
lemma32_suite = partial(run_suite, "lemma32")


def lemma41_suite(n_cuboids: int, seed: int = 0, lam_per_cuboid: int = 10,
                  lam_max: float = 1.0e4) -> list[BoundReport]:
    """Lemma 4.1's bound on N(lam) at ``lam_per_cuboid`` random lam per
    sampled box, each box counted at all its lam in one walk."""
    return list(chain.from_iterable(_lemma41_chunks(n_cuboids, seed, lam_per_cuboid, lam_max)))


def identity_suite(samples: int, seed: int = 0, lam_max: float = 1.0e4) -> list[BoundReport]:
    """Exact symmetry decomposition T = 8N + 4*sum T+ + 2*sum floor + 1.

    lhs is T from the full-lattice counter, rhs the reassembled right side;
    any nonzero residual is a bug, so a report passes only with slack
    exactly 0 (T is an integer below 2^53, exact in float).  Each chunk's
    boxes are drawn first and counted in one ``count_bundles`` call.
    """
    return list(chain.from_iterable(_identity_chunks(samples, seed, lam_max)))


def cube_chain_suite(k_max: int) -> list[BoundReport]:
    """Unit-cube counting chain for every k <= k_max.

    Per k: k <= N(nu_k) <= k + Theta_k - 1 (exact integers), the Gauss octant
    lower bound on N(nu_k), and the eigenvalue growth bound on nu_k^{3/2}.
    """
    return run_suite("cube-chain", k_max)


def polya_suite(samples: int, seed: int = 0, k_max: int = 1000) -> list[BoundReport]:
    """Polya's lower bound on lambda_k at seeded (box, k) pairs; each chunk's
    pairs are drawn first and their lambda_k found in one ``kth_eigenvalues``
    call."""
    return list(chain.from_iterable(_polya_chunks(samples, seed, k_max)))
