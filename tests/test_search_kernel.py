"""The per-level kernels of the certified search against their earlier forms.

The references below are copied from the code before the kernels were
sped up: ``_kth_per_cell`` ordered a chunk's rows by ``np.lexsort``,
``branch_bounds`` clipped by ``np.clip`` and reduced lists of four arrays by
``np.minimum.reduce`` and ``np.maximum.reduce``, and ``_Search.split`` made
its children by ``np.tile``.  The kernels must give the same orders, picks,
bits and chunks, and so ``optimize_k`` the same records and ``optimize`` the
same bytes (``golden/optimize_dyadic_k1-1024.csv``, written by the reference
code).
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eigenbox import optimize
from eigenbox.cli import main
from eigenbox.optimize import (
    _KEY_SORT_ROWS,
    MARGIN,
    PI_SQUARED,
    _Cells,
    _cell_order,
    _kth_per_cell,
    _meets_domain,
    _Search,
    branch_bounds,
    optimize_k,
)
from eigenbox.spectrum import _BLOCK, DEFAULT_CANDIDATE_CAP

GOLDEN = Path(__file__).parent / "golden"
LEXSORT = np.lexsort

# ---------------------------------------------------------------------------
# References: the kernels as they were.
# ---------------------------------------------------------------------------


def ref_kth_per_cell(values, cell, n_cells, need):
    order = LEXSORT((values, cell))
    counts = np.bincount(cell, minlength=n_cells)
    has = counts >= need
    return order, has, order[(np.cumsum(counts) - counts + need - 1)[has]]


def ref_branch_bounds(s, u0, u1, v0, v1):
    a, b, c = s

    def f(u, v):
        return a / u + b / v + c * (u * v)

    t = np.cbrt(a * b * c)
    inside = (u0 <= a / t) & (a / t <= u1) & (v0 <= b / t) & (b / t <= v1)
    edges = [f(u, np.clip(np.sqrt(b / (c * u)), v0, v1)) for u in (u0, u1)]
    edges += [f(np.clip(np.sqrt(a / (c * v)), u0, u1), v) for v in (v0, v1)]
    lo = np.where(inside, 3.0 * t, np.minimum.reduce(edges))
    hi = np.maximum.reduce([f(u, v) for u in (u0, u1) for v in (v0, v1)])
    return lo * (PI_SQUARED * (1.0 - MARGIN)), hi * (PI_SQUARED * (1.0 + MARGIN))


def ref_split(self, level):
    off = np.concatenate(([0], np.cumsum(level.n_rows)))
    a = 0
    while a < len(level.bound):
        b = max(a + 1, int(np.searchsorted(off, off[a] + _BLOCK // 4, "right")) - 1)
        u0, u1, v0, v1 = (np.repeat(x, 4) for x in level.box[:, a:b])
        um, vm = np.sqrt(u0 * u1), np.sqrt(v0 * v1)
        hu, hv = np.tile([0, 1], 2 * (b - a)) == 1, np.tile([0, 0, 1, 1], b - a) == 1
        box = np.array([np.where(hu, um, u0), np.where(hu, u1, um),
                        np.where(hv, vm, v0), np.where(hv, v1, vm)])
        keep = _meets_domain(box)
        parent = np.repeat(np.arange(b - a), level.n_rows[a:b])
        child = (4 * parent + np.arange(4)[:, None]).ravel()
        take = keep[child]
        yield (box[:, keep], np.repeat(level.bound[a:b], 4)[keep],
               np.repeat(level.below[a:b], 4)[keep],
               np.tile(level.s[:, off[a]:off[b]], 4)[:, take], (np.cumsum(keep) - 1)[child[take]])
        a = b


def assert_arrays_equal(new, old):
    assert len(new) == len(old)
    for x, y in zip(new, old):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# The (cell, value, row) order.
# ---------------------------------------------------------------------------


def tied_values(rng, n):
    """AM-GM minima 3 pi^2 cbrt(s1 s2 s3) of random index triples and their
    permutations, shuffled: the products are exact, so each value recurs."""
    base = rng.integers(1, 40, size=(n // 6 + 1, 3)) ** 2
    s = np.concatenate([base[:, p] for p in itertools.permutations(range(3))]).astype(float)
    return rng.permutation(3.0 * PI_SQUARED * np.cbrt(s[:, 0] * s[:, 1] * s[:, 2]))[:n]


VALUES = {
    "tied": tied_values,
    "all-equal": lambda rng, n: np.full(n, 47.0),
    "distinct": lambda rng, n: rng.uniform(10.0, 1e4, n),
}


def outcome(kth, values, cell, n_cells, need):
    """The kernel's three arrays, or the error it raises (a cell of no rows
    whose need is at most 0 picks before the first row)."""
    try:
        return kth(values, cell, n_cells, need)
    except IndexError:
        return IndexError


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("cells", ["one", "many"])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 16384])
def test_order_has_and_pick_equal_lexsort(n, cells, values):
    rng = np.random.default_rng(n + 7 * len(cells) + len(values))
    v = VALUES[values](rng, n)
    n_cells = 1 if cells == "one" else max(2, n // 5)
    cell = np.sort(rng.integers(0, n_cells, n)) if n and n % 2 else rng.integers(0, n_cells, n)
    for need in (rng.integers(1, 12, n_cells), rng.integers(-3, 4, n_cells),
                 np.full(n_cells, n), np.zeros(n_cells, np.int64)):
        new = outcome(_kth_per_cell, v, cell, n_cells, need)
        old = outcome(ref_kth_per_cell, v, cell, n_cells, need)
        if old is IndexError:
            assert new is IndexError
        else:
            assert_arrays_equal(new, old)


@pytest.mark.parametrize("n", [_KEY_SORT_ROWS - 1, _KEY_SORT_ROWS])
def test_cut_over_to_the_key_sort(monkeypatch, n):
    calls = []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or LEXSORT(keys))
    rng = np.random.default_rng(n)
    v, cell = tied_values(rng, n), rng.integers(0, 9, n)
    assert np.array_equal(_cell_order(v, cell, 9), LEXSORT((v, cell)))
    assert calls == ([1] if n < _KEY_SORT_ROWS else [])


@pytest.mark.parametrize("n_cells, key_sort", [(1 << 41, True), ((1 << 41) + 1, False)])
def test_overflow_guard(monkeypatch, n_cells, key_sort):
    """With 2^11 rows every key is below n_cells * 2^22: at n_cells = 2^41
    the largest is 2^63 - 1, and one cell more would pass int64."""
    calls = []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or LEXSORT(keys))
    n = 1 << 11
    rng = np.random.default_rng(n_cells)
    v = tied_values(rng, n)
    cell = rng.integers(n_cells - 3, n_cells, n)
    cell[0] = n_cells - 1
    assert np.array_equal(_cell_order(v, cell, n_cells), LEXSORT((v, cell)))
    assert calls == ([] if key_sort else [1])
    assert (n_cells * n * n <= 1 << 63) == key_sort


# ---------------------------------------------------------------------------
# Branch bounds.
# ---------------------------------------------------------------------------

sides = st.floats(0.05, 4.0)
widths = st.floats(1.0, 3.0)
# Which side of the cell, if any, is put on the row's AM-GM point.
pins = st.sampled_from([None, "u0", "u1", "v0", "v1"])
rows = st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60),
                 sides, widths, sides, widths, pins)


@given(st.lists(rows, min_size=1, max_size=40))
def test_branch_bounds_bits_equal_clip_and_reduce(drawn):
    s = np.array([r[:3] for r in drawn], dtype=float).T ** 2
    t = np.cbrt(s[0] * s[1] * s[2])
    pu, pv = s[0] / t, s[1] / t
    u0, u1, v0, v1 = (np.empty(len(drawn)) for _ in range(4))
    for i, (_, _, _, u, wu, v, wv, pin) in enumerate(drawn):
        u = pu[i] if pin in ("u0", "u1") else u
        v = pv[i] if pin in ("v0", "v1") else v
        u0[i], u1[i] = (u / wu, u) if pin == "u1" else (u, u * wu)
        v0[i], v1[i] = (v / wv, v) if pin == "v1" else (v, v * wv)
    assert_arrays_equal(branch_bounds(s, u0, u1, v0, v1),
                        ref_branch_bounds(s, u0, u1, v0, v1))
    # One cell's sides broadcast to all its rows, as in a one-cell chunk.
    assert_arrays_equal(branch_bounds(s, u0[0], u1[0], v0[0], v1[0]),
                        ref_branch_bounds(s, u0[0], u1[0], v0[0], v1[0]))


# ---------------------------------------------------------------------------
# Split.
# ---------------------------------------------------------------------------


def assert_chunks_equal(new, old):
    assert len(new) == len(old)
    for x, y in zip(new, old):
        assert_arrays_equal(x, y)


@pytest.mark.parametrize("k", [2, 37, 64, 300, 1024])
def test_split_chunks_equal_tile_at_every_level(k):
    search = _Search(k, DEFAULT_CANDIDATE_CAP)
    level = search.level(search.roots())
    while len(level.bound):
        chunks = list(search.split(level))
        assert_chunks_equal(chunks, list(ref_split(search, level)))
        level = search.level(chunks)


def test_split_chunks_equal_tile_with_a_large_parent():
    """A parent of more than ``_BLOCK`` / 4 rows is a chunk of its own, and
    a parent may hold no rows."""
    rng = np.random.default_rng(5)
    n_rows = np.array([3, _BLOCK, 0, 7, _BLOCK // 4 - 10, 12, 1])
    m = len(n_rows)
    u0 = rng.uniform(0.3, 0.9, m)
    v0 = rng.uniform(0.3, 0.9, m)
    box = np.array([u0, u0 * 1.1, v0, v0 * 1.2])
    s = (rng.integers(1, 50, (3, int(n_rows.sum()))) ** 2).astype(float)
    level = _Cells(box, rng.uniform(10, 100, m), rng.integers(0, 5, m), n_rows, s)
    search = _Search(8, DEFAULT_CANDIDATE_CAP)
    assert_chunks_equal(list(search.split(level)), list(ref_split(search, level)))


# ---------------------------------------------------------------------------
# Records and bytes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [*range(1, 71), 128, 256, 512, 1024])
def test_records_equal_the_reference_kernels(monkeypatch, k):
    new = optimize_k(k)
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_kth_per_cell", ref_kth_per_cell)
        patch.setattr(optimize, "branch_bounds", ref_branch_bounds)
        patch.setattr(optimize._Search, "split", ref_split)
        old = optimize_k(k)
    assert new.lambda_star.hex() == old.lambda_star.hex()
    assert new.lambda_lower.hex() == old.lambda_lower.hex()
    assert new == old


@pytest.mark.parametrize("threads", [1, 2])
def test_dyadic_sweep_bytes(capsys, threads):
    code = main(["optimize", "--k-min", "1", "--k-max", "1024", "--dyadic",
                 "--threads", str(threads)])
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "optimize_dyadic_k1-1024.csv").read_bytes()
