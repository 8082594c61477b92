"""Batch verification suites: seeded sampling of the named inequalities and
exact identities, producing :class:`~eigenbox.bounds.BoundReport` rows.

Each suite is one generator of (samples, seed, its own parameters) that
yields its reports about ``CHUNK`` at a time, so ``verify`` writes and
counts each chunk before the next is made and its memory does not grow with
the number of samples.  A sampled suite's chunks draw in turn from one
``random.Random(seed)``, so its draws and reports do not depend on the chunk
size.  ``identity`` counts a chunk's boxes in one ``count_bundles`` call,
``polya`` finds a chunk's eigenvalues in one ``kth_eigenvalues`` call, and
``cube-chain`` reads the unit cube's levels, a chunk of k at a time.
``run_suite`` and the ``*_suite`` functions join the chunks in one list.

These back the ``verify`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain

import numpy as np

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
    _cube_levels,
    counts_upto,
    kth_eigenvalues,
)

OMEGA_3 = 4.0 * math.pi / 3.0


def sample_cuboid(rng: random.Random) -> Cuboid:
    """A box drawn uniformly from the optimiser's search domain."""
    a1 = rng.uniform(a1_lower_bound(), 1.0)
    a2 = rng.uniform(a1, math.sqrt(1.0 / a1))
    return Cuboid.from_sides(a1, a2)


def _sample_query(rng: random.Random, n_choices: Sequence[int]) -> BoundQuery:
    y = rng.uniform(0.0, 1.0e6)
    a = 10.0 ** rng.uniform(-2.0, 2.0)
    n = rng.choice(n_choices)
    return BoundQuery(y=y, a=a, n=n)


# Reports a suite makes per chunk, about: a suite that makes r reports a
# draw draws CHUNK // r at a time.
CHUNK = 1024
_Chunks = Iterator[list[BoundReport]]


def _sizes(draws: int, per_draw: int = 1) -> Iterator[int]:
    """Chunk sizes of CHUNK // per_draw draws, the last what is left, that
    sum to ``draws``."""
    step = max(1, CHUNK // per_draw)
    return (min(step, draws - done) for done in range(0, draws, step))


def _lemma(name: str, n_choices: Sequence[int], rhs: Callable[[BoundQuery], float],
           samples: int, seed: int = 0) -> _Chunks:
    rng = random.Random(seed)
    for n in _sizes(samples):
        queries = [_sample_query(rng, n_choices) for _ in range(n)]
        yield [BoundReport(name, {"y": q.y, "a": q.a, "n": q.n}, lemma_sum(q), rhs(q))
               for q in queries]


def _lemma41(n_cuboids: int, seed: int = 0, lam_per_cuboid: int = 10,
             lam_max: float = 1.0e4) -> _Chunks:
    """Lemma 4.1's bound on N(lam) at ``lam_per_cuboid`` random lam per
    sampled box, each box counted at all its lam in one walk."""
    rng = random.Random(seed)
    for n in _sizes(n_cuboids, lam_per_cuboid):
        out = []
        for _ in range(n):
            c = sample_cuboid(rng)
            lams = [rng.uniform(0.0, lam_max) for _ in range(lam_per_cuboid)]
            out += [BoundReport("lemma41", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                                float(count), lemma41_rhs(c, lam))
                    for lam, count in zip(lams, counts_upto(c, lams))]
        yield out


def _identity(samples: int, seed: int = 0, lam_max: float = 1.0e4) -> _Chunks:
    """Exact symmetry decomposition T = 8N + 4*sum T+ + 2*sum floor + 1.

    lhs is T from the full-lattice counter, rhs the reassembled right side;
    any nonzero residual is a bug, so a report passes only with slack
    exactly 0 (T is an integer below 2^53, exact in float).  Each chunk's
    boxes are drawn first and counted in one ``count_bundles`` call.
    """
    rng = random.Random(seed)
    for n in _sizes(samples):
        draws = [(sample_cuboid(rng), rng.uniform(0.0, lam_max)) for _ in range(n)]
        bundles = lattice.count_bundles([c for c, _ in draws], [lam for _, lam in draws])
        chunk = [BoundReport("identity", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                             float(b.t), float(b.t - b.octant_identity_residual()), exact=True)
                 for (c, lam), b in zip(draws, bundles, strict=True)]
        # This frame lives across the yield: free the draws before it, and
        # the chunk after it, as the writer takes the next one.
        del draws, bundles
        yield chunk
        del chunk


def _cube_chain(k_max: int, seed: int = 0) -> _Chunks:
    """Unit-cube counting chain for every k <= k_max; it draws nothing, so
    ``seed`` is unused.

    Per k: k <= N(nu_k) <= k + Theta_k - 1 (exact integers), the Gauss octant
    lower bound on N(nu_k), and the eigenvalue growth bound on nu_k^{3/2}.
    A chunk's levels m = nu_k/pi^2 are found in the cube's level counts by
    one ``searchsorted``, so no per-k table is held.
    """
    hist, cum = _cube_levels(k_max)
    first = 1
    for n in _sizes(k_max, 4):
        ks = range(first, first + n)
        first += n
        levels = np.searchsorted(cum, ks)
        out = []
        for k, m, theta, n_at_nu in zip(ks, levels.tolist(), hist[levels].tolist(),
                                        cum[levels].tolist()):
            nu = PI_SQUARED * float(m)
            gauss = (OMEGA_3 / 8.0) * max(math.sqrt(nu) / math.pi - math.sqrt(3.0), 0.0) ** 3
            out += [
                BoundReport("cube_chain_lower", {"k": k, "m": m}, float(k), float(n_at_nu)),
                BoundReport("cube_chain_upper", {"k": k, "m": m, "theta": theta},
                            float(n_at_nu), float(k + theta - 1)),
                BoundReport("gauss_octant", {"k": k, "m": m}, gauss, float(n_at_nu)),
                cube_eigenvalue_bound(k, nu),
            ]
        yield out


def _polya(samples: int, seed: int = 0, k_max: int = 1000) -> _Chunks:
    """Polya's lower bound on lambda_k at seeded (box, k) pairs; each chunk's
    pairs are drawn first and their lambda_k found in one ``kth_eigenvalues``
    call."""
    rng = random.Random(seed)
    for n in _sizes(samples):
        draws = [(sample_cuboid(rng), rng.randint(1, k_max)) for _ in range(n)]
        points = kth_eigenvalues([c for c, _ in draws], [k for _, k in draws])
        chunk = [BoundReport("polya", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "k": k},
                             polya_lower_bound(k), point.value)
                 for (c, k), point in zip(draws, points, strict=True)]
        del draws, points
        yield chunk
        del chunk


# Each suite's chunks as a function of (samples, seed, its own parameters),
# in ``verify --suite all`` order; ``samples`` is the k range for cube-chain.
_SUITES = {
    "lemma31": partial(_lemma, "lemma31", (1, 2), lemma31_rhs),
    "lemma32": partial(_lemma, "lemma32", range(1, 7), lemma32_rhs),
    "lemma41": _lemma41,
    "identity": _identity,
    "cube-chain": _cube_chain,
    "polya": _polya,
}
SUITE_NAMES = tuple(_SUITES)


def suite_chunks(name: str, samples: int, seed: int = 0, **params) -> _Chunks:
    """The reports of one named suite, in chunks of about CHUNK reports, made
    one chunk at a time; ``samples`` is the k range for cube-chain."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](samples, seed, **params)


def run_suite(name: str, samples: int, seed: int = 0, **params) -> list[BoundReport]:
    """The reports of one named suite, its chunks joined in one list."""
    return list(chain.from_iterable(suite_chunks(name, samples, seed, **params)))


lemma31_suite = partial(run_suite, "lemma31")
lemma32_suite = partial(run_suite, "lemma32")
lemma41_suite = partial(run_suite, "lemma41")
identity_suite = partial(run_suite, "identity")
cube_chain_suite = partial(run_suite, "cube-chain")
polya_suite = partial(run_suite, "polya")
