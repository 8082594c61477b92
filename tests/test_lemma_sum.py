"""``lemma_sum`` sums the prefix of non-negative terms, bit for bit as the
masked sum it replaced.

The reference is the masked version copied from the code before: it forms
y - a^2 i^2 for i up to int(sqrt(y)/a) + 2 and keeps the entries >= 0.
"""

import math
import random
import struct

import numpy as np
import pytest

from eigenbox.bounds import BoundQuery, lemma_sum


def ref_lemma_sum(query):
    y, a, n = query.y, query.a, query.n
    if y == 0.0:
        return 0.0
    width = int(math.sqrt(y) / a) + 2
    i = np.arange(1, width + 1, dtype=np.float64)
    base = y - (a * a) * (i * i)
    base = base[base >= 0.0]
    if base.size == 0:
        return 0.0
    if n == 2:
        return float(base.sum())
    if n == 1:
        return float(np.sqrt(base).sum())
    return float((base ** (n / 2.0)).sum())


def bits(x):
    return struct.pack("<d", x)


def test_seeded_queries_equal_the_masked_sum_bit_for_bit():
    rng = random.Random(20)
    for _ in range(20_000):
        q = BoundQuery(
            y=rng.uniform(0.0, 1.0e6), a=10.0 ** rng.uniform(-2.0, 2.0), n=rng.randint(1, 6)
        )
        assert bits(lemma_sum(q)) == bits(ref_lemma_sum(q))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_boundaries_and_empty_sums(n):
    rng = random.Random(n)
    queries = [BoundQuery(0.0, 1.0, n), BoundQuery(0.0, 1e-2, n)]
    for _ in range(500):
        a = 10.0 ** rng.uniform(-2.0, 2.0)
        i = rng.randint(1, 300)
        y = (a * i) ** 2
        # y on a term's exact boundary, one ulp to each side, and y < a^2.
        queries += [BoundQuery(y, a, n), BoundQuery(math.nextafter(y, 0.0), a, n),
                    BoundQuery(math.nextafter(y, math.inf), a, n),
                    BoundQuery(a * a * rng.uniform(0.0, 1.0), a, n)]
    queries += [BoundQuery(float(i * i), 1.0, n) for i in range(1, 200)]
    for q in queries:
        assert bits(lemma_sum(q)) == bits(ref_lemma_sum(q))
    assert lemma_sum(BoundQuery(0.5, 1.0, n)) == 0.0
