"""Many boxes in one octant band pass: ``kth_eigenvalues``, the batched N of
``count_bundles`` and the root level of the certified search.

The reference below is the per-box ``_octant_blocks`` / ``_octant_band`` /
``_band`` / ``kth_eigenvalue`` copied from the code before the bands of many
boxes shared runs: each box walks its own blocks, one ``_nmax_vec`` call a
block piece, and widens its own band.  The batched pass must give the same
spectral points bit for bit, refuse where the boxes refuse one by one, and
count N as ``count_upto`` does without touching the lattice passes that the
octant identity checks it against.
"""

import math
import random

import numpy as np
import pytest

from eigenbox import lattice, optimize, spectrum, suites
from eigenbox.bounds import a1_lower_bound
from eigenbox.cli import main
from eigenbox.lattice import count_bundles
from eigenbox.optimize import MARGIN, OptimizerConfig, _Search, optimize_k, root_cells
from eigenbox.reporting import _CELL_RULES, VERIFY, _inputs_cells
from eigenbox.bounds import BoundReport
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    DEGENERACY_RTOL,
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    ResourceLimitError,
    SpectralPoint,
    _BLOCK,
    _block_columns,
    _nmax_vec,
    _octant_bands,
    _redone_alone,
    _slice_width,
    _weyl_guess,
    count_upto,
    kth_eigenvalue,
    kth_eigenvalues,
)

# ---------------------------------------------------------------------------
# Reference: one box, one band walk at a time.
# ---------------------------------------------------------------------------


def ref_octant_blocks(inv, lam_eff, cap):
    q1, q2, q3 = inv
    top = lam_eff / PI_SQUARED
    last = int(math.sqrt(max((top - q2 - q3) / q1, 0.0))) + 1
    i1 = 1
    while True:
        c1 = float(i1 * i1) * q1
        width = _slice_width(top - c1 - q3, q2)
        if width > cap:
            raise ResourceLimitError(
                f"a slice below lambda={lam_eff:.6g} spans more than {cap} columns "
                "(the candidate cap)"
            )
        if PI_SQUARED * (c1 + q2 + q3) > lam_eff:
            return
        rows = max(1, min(_block_columns(c1 + q2, q3, lam_eff) // width, last + 1 - i1))
        t1 = np.arange(i1, i1 + rows, dtype=np.float64)
        row_c = ((t1 * t1) * q1)[:, None]
        step = _BLOCK // rows
        lo = 1
        while lo <= width:
            t2 = np.arange(lo, min(lo + step, width + 1), dtype=np.float64)
            c = (row_c + (t2 * t2) * q2).ravel()
            yield t1, t2, c
            lo += len(t2)
            if lo > width and PI_SQUARED * (float(c[len(t2) - 1]) + q3) <= lam_eff:
                width *= 2
        i1 += rows


def ref_octant_band(inv, lo_eff, hi_eff, cap):
    q3 = inv[2]
    below = size = 0
    c12s, counts, cols = [], [], []
    for t1, t2, c in ref_octant_blocks(inv, hi_eff, cap):
        if PI_SQUARED * (float(c[0]) + q3) <= lo_eff:
            g = _nmax_vec(c, q3, np.array([[hi_eff], [lo_eff]]))
            floor = g[1]
            below += int(floor.sum())
            count = g[0] - floor
        else:
            count = _nmax_vec(c, q3, hi_eff)
            floor = 0
        size += int(count.sum())
        if size > cap:
            raise ResourceLimitError(
                f"band ({lo_eff:.6g}, {hi_eff:.6g}] holds more than "
                f"{cap} candidates (the candidate cap)"
            )
        col = np.empty((3, len(t1), len(t2)), dtype=np.int64)
        col[0] = t1[:, None]
        col[1] = t2
        col = col.reshape(3, -1)
        col[2] = floor + 1
        nz = count.nonzero()[0]
        c12s.append(c[nz])
        counts.append(count[nz])
        cols.append(col[:, nz])
    if not cols:
        return below, np.empty(0), np.empty((3, 0), dtype=np.int64)
    count, col, c12 = (
        p[0] if len(p) == 1 else np.concatenate(p, axis=-1) for p in (counts, cols, c12s)
    )
    col[2] -= count.cumsum() - count
    triples = col.repeat(count, axis=1)
    triples[2] += np.arange(size, dtype=np.int64)
    values = c12.repeat(count)
    t3 = triples[2].astype(np.float64)
    np.multiply(t3, t3, out=t3)
    t3 *= q3
    values += t3
    values *= PI_SQUARED
    return below, values, triples


def ref_band(cuboid, k, cap):
    guess = _weyl_guess(cuboid, k)
    margin = min(2.0 * k ** (-1.0 / 3.0), 1.0)
    down = margin
    up = min(margin, 0.75)
    rounds = 0
    while True:
        rounds += 1
        lo = max(guess * (1.0 - down), 0.0)
        hi = guess * (1.0 + up)
        below, values, triples = ref_octant_band(cuboid.inv_sq, lo, hi, cap)
        j = k - 1 - below
        value = float(np.partition(values, j)[j]) if 0 <= j < len(values) else math.nan
        if j < 0 or value * (1.0 - DEGENERACY_RTOL) <= lo:
            down *= 2.0
        elif j >= len(values) or value * (1.0 + DEGENERACY_RTOL) > hi:
            up = margin if up < margin else 2.0 * up
        else:
            return values, triples, value, rounds


def ref_kth(cuboid, k, cap=DEFAULT_CANDIDATE_CAP):
    values, triples, value, _ = ref_band(cuboid, k, cap)
    near = values >= value * (1.0 - DEGENERACY_RTOL)
    near &= values <= value * (1.0 + DEGENERACY_RTOL)
    indices = tuple(sorted(zip(*triples.compress(near, axis=1).tolist())))
    return SpectralPoint(value=value, indices=indices)


def polya_draws(n, seed):
    rng = random.Random(seed)
    return [(suites.sample_cuboid(rng), rng.randint(1, 1000)) for _ in range(n)]


def batched(pairs, cap=DEFAULT_CANDIDATE_CAP):
    return kth_eigenvalues([c for c, _ in pairs], [k for _, k in pairs], cap)


def exact(points):
    # SpectralPoint compares floats with ==; this also tells -0.0 and NaN apart.
    return [(p.value.hex(), p.indices) for p in points]


# Off the domain, or with k <= 8, the first band can miss.
THIN = [Cuboid.from_sides(0.05, 1.0), Cuboid.from_sides(0.02, 1.0 / math.sqrt(0.02)),
        Cuboid.from_sides(0.1, 0.1), Cuboid.from_sides(a1_lower_bound(), a1_lower_bound() ** -0.5)]
MISSES = [(box, k) for box in THIN for k in range(1, 9)] + [
    (UNIT_CUBE, k) for k in (1, 2, 3, 4, 5, 7, 8, 10, 13, 14, 17, 20, 26, 27, 37, 81, 300)
]

# ---------------------------------------------------------------------------
# kth_eigenvalues
# ---------------------------------------------------------------------------


def test_polya_draws_equal_the_per_box_reference():
    pairs = polya_draws(2000, 31)
    assert exact(batched(pairs)) == exact([ref_kth(c, k) for c, k in pairs])


def test_missed_first_bands_equal_the_reference(monkeypatch):
    rounds = [ref_band(c, k, DEFAULT_CANDIDATE_CAP)[3] for c, k in MISSES]
    assert max(rounds) > 1 and min(rounds) == 1
    passes = []
    real = spectrum._octant_bands

    def counted(bands, cap):
        passes.append(len(bands))
        return real(bands, cap)

    monkeypatch.setattr(spectrum, "_octant_bands", counted)
    # Misses mixed with polya draws; only the boxes that missed go round again.
    pairs = [p for pair in zip(MISSES, polya_draws(len(MISSES), 2)) for p in pair]
    assert exact(batched(pairs)) == exact([ref_kth(c, k) for c, k in pairs])
    assert passes[0] == len(pairs)
    assert passes[1] == sum(r > 1 for r in rounds) < len(MISSES)
    assert len(passes) == max(rounds)


@pytest.mark.parametrize("block, points, narrow", [
    (1, 1, False), (7, 50, False), (64, 1, False), (200, 300, False), (700, 4000, False),
    (700, 1, True), (_BLOCK, 5000, True),
])
def test_run_boundaries_change_nothing(monkeypatch, block, points, narrow):
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    monkeypatch.setattr(spectrum, "_BAND_POINTS", points)
    if narrow:
        # Every block's first guess is one column, so every block widens
        # into a second piece.
        monkeypatch.setattr(spectrum, "_slice_width", lambda rem, q2: 1)
    runs = []
    real = spectrum._count_ragged

    def recorded(bands, run):
        runs.append([b for b, *_ in run])
        return real(bands, run)

    monkeypatch.setattr(spectrum, "_count_ragged", recorded)
    pairs = polya_draws(60, block + narrow) + MISSES[::5]
    assert exact(batched(pairs)) == exact([ref_kth(c, k) for c, k in pairs])
    # Band by band, the batch holds the arrays of each box's walk alone.
    bands = [(c.inv_sq, 0.5 * _weyl_guess(c, k), 1.2 * _weyl_guess(c, k)) for c, k in pairs]
    bands += [(UNIT_CUBE.inv_sq, 0.0, 30.0), (UNIT_CUBE.inv_sq, 300.0, 300.0)]
    for band, (below, values, triples) in zip(bands, _octant_bands(bands, DEFAULT_CANDIDATE_CAP)):
        ref_below, ref_values, ref_triples = next(_octant_bands([band], DEFAULT_CANDIDATE_CAP))
        assert below == ref_below
        assert values.tobytes() == ref_values.tobytes()
        assert np.array_equal(triples, ref_triples)
    if block >= 200:
        assert max(len(set(run)) for run in runs) > 1
    if narrow:
        assert max(max(run.count(b) for b in run) for run in runs) > 1


def test_default_budgets_cut_polya_into_several_runs(monkeypatch):
    sizes = []
    real = spectrum._count_ragged

    def recorded(bands, run):
        sizes.append(sum(rows * (hi - lo) for _, _, rows, lo, hi in run))
        return real(bands, run)

    monkeypatch.setattr(spectrum, "_count_ragged", recorded)
    pairs = polya_draws(400, 5)
    assert exact(batched(pairs)) == exact([ref_kth(c, k) for c, k in pairs])
    assert 1 < len(sizes) < 40 and max(sizes) <= _BLOCK


def test_one_box_is_kth_eigenvalue():
    for c, k in polya_draws(20, 7) + MISSES[::3]:
        assert exact(kth_eigenvalues([c], [k])) == exact([kth_eigenvalue(c, k)])
        assert exact([kth_eigenvalue(c, k)]) == exact([ref_kth(c, k)])
    assert kth_eigenvalues([], []) == []


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ResourceLimitError, ValueError) as exc:
        return type(exc), str(exc)


def ref_first_refusal(pairs, cap):
    for c, k in pairs:
        outcome = _outcome(ref_kth, c, k, cap)
        if isinstance(outcome, tuple):
            return outcome
    return None


CAP_BOXES = [
    ((0.05, 1.0), 8, 500),  # band cap
    ((0.05, 1.0), 1, 10),  # band cap; the first slice spans 8 columns
    ((0.05, 1.0), 300, 1000),  # band cap on the widened band: 32, then 1406 points
    ((0.7, 0.9), 1, 1),  # any slice spans two columns
    ((0.05, 1.0), 1, 7),  # a slice of 8 columns
]


@pytest.mark.parametrize("sides, k, cap", CAP_BOXES)
def test_a_refusal_in_a_batch_is_the_box_alone(sides, k, cap):
    box = Cuboid.from_sides(*sides)
    alone = _outcome(ref_kth, box, k, cap)
    assert isinstance(alone, tuple) and alone[0] is ResourceLimitError
    assert _outcome(kth_eigenvalue, box, k, cap) == alone
    others = polya_draws(5, k)
    assert _outcome(batched, [(box, k), *others], cap) == alone
    # Among other boxes, the refusal of the first box that refuses alone
    # (under caps of 1 and 7 columns a cube refuses too).
    for pairs in ([others[0], (box, k), others[1]], [(UNIT_CUBE, 1), (box, k)]):
        assert _outcome(batched, pairs, cap) == ref_first_refusal(pairs, cap)


def test_the_first_refusing_box_wins_across_rounds():
    # The first box refuses only in its second round, the second one in its
    # first: one by one, the first box's refusal comes first.
    late = (Cuboid.from_sides(0.05, 1.0), 300)
    early = (Cuboid.from_sides(0.7, 0.9), 2000)
    pairs = [(UNIT_CUBE, 1), late, early]
    expected = ref_first_refusal(pairs, 1000)
    assert expected == _outcome(ref_kth, *late, 1000)
    assert expected != _outcome(ref_kth, *early, 1000)
    assert _outcome(batched, pairs, 1000) == expected
    assert _outcome(batched, [early, late], 1000) == _outcome(ref_kth, *early, 1000)


def test_a_refused_band_pass_is_redone_band_by_band():
    # The cube's band holds more than 40 points; the thin box's first slice
    # spans more than 40 columns, which shows before the cube's run is
    # counted.
    bands = [(UNIT_CUBE.inv_sq, 0.0, 50.0), (UNIT_CUBE.inv_sq, 0.0, 3000.0),
             (Cuboid.from_sides(0.05, 1.0).inv_sq, 0.0, 1.0e5)]
    alone = _outcome(lambda: [next(_octant_bands([band], 40)) for band in bands])
    assert alone[1].startswith("band (0, 3000]")
    assert _outcome(lambda: list(_octant_bands(bands, 40)))[1].startswith("a slice below")
    yielded = []

    def redone():
        for out in _redone_alone(bands, lambda b: _octant_bands(b, 40),
                                 lambda band: next(_octant_bands([band], 40))):
            yielded.append(out)

    assert _outcome(redone) == alone
    # The first band, yielded once, before the refusal.
    assert len(yielded) == 1
    assert yielded[0][1].tobytes() == next(_octant_bands(bands[:1], 40))[1].tobytes()


def test_a_refused_one_item_batch_is_not_redone():
    calls = []

    def alone(item):
        calls.append(item)
        return item

    def refuse(items):
        raise ResourceLimitError("refused")

    with pytest.raises(ResourceLimitError, match="refused"):
        list(_redone_alone([1], refuse, alone))
    assert calls == []
    assert list(_redone_alone([1, 2], refuse, alone)) == [1, 2] == calls


def test_runs_keep_the_count_budget_of_their_largest_piece():
    # The long side's q3 is tiny: the column (1, 1) counts some 4e14 points,
    # so one kernel call over the band's 125 entries would pass 2^53, while
    # each of its 8 blocks (one slice each) stays within it.
    s = 3e-5
    box = Cuboid(s, s, 1.0 / (s * s))
    q1, q2, q3 = box.inv_sq
    hi = PI_SQUARED * 130.0 * q1
    band, small = (box.inv_sq, hi, hi), (UNIT_CUBE.inv_sq, 0.0, 300.0)
    bands = [small, band, small, small]
    runs = [run for run, _ in spectrum._piece_runs(bands, DEFAULT_CANDIDATE_CAP)]
    entries = [sum(r * (h - l) for _, _, r, l, h in run) for run in runs]
    guess = math.sqrt((hi / PI_SQUARED - q1 - q2) / q3)
    big = sum(r * (h - l) for run in runs for b, _, r, l, h in run if b == 1)
    assert guess < spectrum._NMAX_LIMIT < guess * big

    def first_count(b, i1, lo):
        # A piece's largest count is at its first column (i1, lo).
        (p1, p2, p3), _, top = bands[b]
        return math.sqrt(max((top / PI_SQUARED - (float(i1 * i1) * p1 + float(lo * lo) * p2)) / p3, 0.0))

    for run, n in zip(runs, entries):
        assert n <= _BLOCK
        assert max(first_count(b, i1, lo) for b, i1, _, lo, _ in run) * n <= spectrum._NMAX_LIMIT
    assert sum(any(b == 1 for b, *_ in run) for run in runs) > 1
    for batch in ([band, small], bands, [band, band]):
        got = list(_octant_bands(batch, DEFAULT_CANDIDATE_CAP))
        for (below, values, triples), ref in zip(got, batch):
            ref_below, ref_values, ref_triples = ref_octant_band(*ref, DEFAULT_CANDIDATE_CAP)
            assert below == ref_below
            assert values.tobytes() == ref_values.tobytes()
            assert np.array_equal(triples, ref_triples)
    assert got[0][0] > 2**53


def test_groups_hold_at_most_band_points(monkeypatch):
    groups = []
    real = spectrum._band_points

    def recorded(c12, count, col, q3):
        groups.append(int(count.sum()))
        return real(c12, count, col, q3)

    monkeypatch.setattr(spectrum, "_band_points", recorded)
    pairs = polya_draws(300, 8)
    assert exact(batched(pairs)) == exact([ref_kth(c, k) for c, k in pairs])
    assert max(groups) <= spectrum._BAND_POINTS < 2 * max(groups)
    assert sum(groups) > 2 * spectrum._BAND_POINTS


def test_bad_k_and_mismatched_lengths():
    with pytest.raises(ValueError, match="k must be >= 1"):
        kth_eigenvalues([UNIT_CUBE, UNIT_CUBE], [1, 0])
    with pytest.raises(ValueError):
        kth_eigenvalues([UNIT_CUBE, UNIT_CUBE], [1])


# ---------------------------------------------------------------------------
# The root level of the certified search
# ---------------------------------------------------------------------------


def ref_roots(self):
    # The per-cell roots before the batched pass: each cell is banded at the
    # incumbent that the chunks before it left.
    boxes, rows, size = [], [], 0
    for box in root_cells().T:
        u0, u1, v0, v1 = box
        _, _, t = next(_octant_bands(
            [((1.0 / u1, 1.0 / v1, u0 * v0), 0.0, self.best * (1.0 + MARGIN))], self.cap))
        if rows and size + t.shape[1] > optimize._BLOCK:
            yield self._root_chunk(boxes, rows)
            boxes, rows, size = [], [], 0
        boxes.append(box)
        rows.append(t)
        size += t.shape[1]
    yield self._root_chunk(boxes, rows)


# With small chunks a chunk can lower best within the root level; at the
# default _BLOCK none of k = 1..129, 256, 512, 1024, 2048 or 4096 does.
@pytest.mark.parametrize("k, block, n_passes", [
    (5, 16, 3), (40, 16, 2), (90, 256, 2), (80, 1024, 2), (4096, _BLOCK, 1),
])
def test_root_cells_are_banded_at_the_incumbent_when_reached(monkeypatch, k, block, n_passes):
    monkeypatch.setattr(optimize, "_BLOCK", block)
    passes = []
    real = optimize._octant_bands

    def counted(bands, cap):
        passes.append(len(bands))
        return real(bands, cap)

    monkeypatch.setattr(optimize, "_octant_bands", counted)
    new, old = _Search(k, DEFAULT_CANDIDATE_CAP), _Search(k, DEFAULT_CANDIDATE_CAP)
    chunks, ref_chunks = [], []

    def recorded(roots, into):
        for chunk in roots:
            into.append([x.copy() for x in chunk])
            yield chunk

    got = new.level(recorded(new.roots(), chunks))
    ref = old.level(recorded(ref_roots(old), ref_chunks))
    # The same chunks, row for row, bounded against the same incumbents.
    assert len(chunks) == len(ref_chunks) > 1
    for chunk, ref_chunk in zip(chunks, ref_chunks):
        for x, ref_x in zip(chunk, ref_chunk):
            assert x.dtype == ref_x.dtype and x.tobytes() == ref_x.tobytes()
    for field, ref_field in zip(got, ref):
        assert field.dtype == ref_field.dtype
        assert field.tobytes() == ref_field.tobytes()
    assert (new.best, new.point, new.lower, new.cells) == (old.best, old.point, old.lower, old.cells)
    # Each time a chunk lowered best, the cells after it were banded again.
    assert len(passes) == n_passes and passes[0] == len(root_cells().T)
    with monkeypatch.context() as patch:
        patch.setattr(_Search, "roots", ref_roots)
        expected = optimize_k(k)
    assert optimize_k(k) == expected


def _search_outcome(k, cap):
    try:
        return optimize_k(k, OptimizerConfig(candidate_cap=cap))
    except ResourceLimitError as exc:
        return str(exc)


@pytest.mark.parametrize("k, cap", [(5, 3), (20, 10), (60, 10), (60, 300), (200, 1000)])
def test_a_refused_root_level_is_the_first_cell_alone(monkeypatch, k, cap):
    # A batch meets a later cell's slice cap before an earlier cell's band
    # cap; one by one, the earlier cell refuses first.
    outcome = _search_outcome(k, cap)
    monkeypatch.setattr(_Search, "roots", ref_roots)
    assert outcome == _search_outcome(k, cap)


# ---------------------------------------------------------------------------
# N of count_bundles
# ---------------------------------------------------------------------------


def identity_pairs(n, seed):
    rng = random.Random(seed)
    return [(suites.sample_cuboid(rng), rng.uniform(0.0, 1.0e4)) for _ in range(n)]


def test_batched_n_equals_count_upto(monkeypatch):
    pairs = identity_pairs(300, 3) + [
        (UNIT_CUBE, 0.0), (UNIT_CUBE, 3 * PI_SQUARED), (UNIT_CUBE, 6 * PI_SQUARED),
        (UNIT_CUBE, 5000.0), (Cuboid.from_sides(0.05, 1.0), 0.0), (THIN[1], 2.0e4),
    ]
    expected = [count_upto(c, lam) for c, lam in pairs]
    bundles = count_bundles([c for c, _ in pairs], [lam for _, lam in pairs])
    assert [b.n for b in bundles] == expected
    assert all(b.consistent() for b in bundles)
    # With runs of a few entries the counts do not move.
    monkeypatch.setattr(spectrum, "_BLOCK", 5)
    effs = [lam * (1.0 + spectrum.COUNT_EPS) for _, lam in pairs]
    octant = [(c.inv_sq, e, e) for (c, _), e in zip(pairs, effs)]
    assert [n for n, _, _ in _octant_bands(octant, DEFAULT_CANDIDATE_CAP)] == expected


def test_a_refusal_in_a_count_batch_is_the_first_box_alone():
    # The first box refuses at its plane cap, after its N; the second one
    # refuses in its N, and a negative lambda before any counting.
    plane, octant = (Cuboid.from_sides(1e-4, 1e-4), 4e9), (Cuboid.from_sides(1e-4, 1e-4), 1e14)
    alone = _outcome(lattice.count_bundle, *plane)
    assert alone[1].startswith("the plane count")
    assert _outcome(lattice.count_bundle, *octant)[1].startswith("float64 cannot count")
    for pairs in ([plane, octant], [plane, (UNIT_CUBE, -1.0)], [identity_pairs(1, 0)[0], plane, octant]):
        assert _outcome(count_bundles, [c for c, _ in pairs], [lam for _, lam in pairs]) == alone


def test_n_never_reaches_the_lattice_passes(monkeypatch):
    # While N is counted the lattice passes that count T, T_x and T+ are
    # stubs that fail when called.
    real = lattice._octant_bands

    def fail(*args):
        raise AssertionError("N reached a lattice pass")

    def isolated(bands, cap):
        with monkeypatch.context() as patch:
            for name in ("_count_pieces", "_line_sums", "_full_counts"):
                patch.setattr(lattice, name, fail)
            return list(real(bands, cap))

    monkeypatch.setattr(lattice, "_octant_bands", isolated)
    pairs = identity_pairs(50, 4)
    bundles = count_bundles([c for c, _ in pairs], [lam for _, lam in pairs])
    assert [b.n for b in bundles] == [count_upto(c, lam) for c, lam in pairs]


def test_an_overcounted_n_fails_every_identity_report(monkeypatch, tmp_path):
    real = lattice._octant_bands

    def plus_one(bands, cap):
        for below, values, triples in real(bands, cap):
            yield below + 1, values, triples

    reports = suites.identity_suite(20, seed=5)
    assert all(r.passed and r.slack == 0.0 for r in reports)
    monkeypatch.setattr(lattice, "_octant_bands", plus_one)
    reports = suites.identity_suite(20, seed=5)
    assert [r.slack for r in reports] == [8.0] * 20
    assert not any(r.passed for r in reports)
    out = tmp_path / "identity.csv"
    argv = ["verify", "--suite", "identity", "--samples", "20", "--seed", "5", "--out", str(out)]
    assert main(argv) == 1
    assert out.read_text().count(",false\n") == 20


def dropping_last(runs):
    # A packer that loses the last piece of each run of two or more pieces.
    def faulty(pieces):
        for run, after in runs(pieces):
            yield (run[:-1] if len(run) > 1 else run), after

    return faulty


@pytest.mark.parametrize("modules", [("spectrum",), ("lattice",), ("spectrum", "lattice")])
def test_a_packer_fault_fails_the_identity(modules, monkeypatch):
    # The octant walk and the lattice passes share one packer, but each
    # enumerates its own pieces: a piece lost from the runs of N, of T, T_x
    # and T+, or of both, shows in the identity.
    real = spectrum._runs
    assert lattice._runs is real
    assert all(r.passed for r in suites.identity_suite(20, seed=5))
    for name in modules:
        monkeypatch.setattr({"spectrum": spectrum, "lattice": lattice}[name], "_runs",
                            dropping_last(real))
    assert not all(r.passed for r in suites.identity_suite(20, seed=5))


def test_a_pass_that_closes_too_few_bands_raises(monkeypatch):
    # A packer that loses the last piece of each run and closes only the
    # bands before it: the band of the last lost piece is never yielded.
    # Paired without strict=True, the identity suite would drop the boxes
    # not yielded and pass the others (18 reports, all passing); a ValueError
    # would be redone box by box, each box a run of one piece, where the
    # fault does not bite.
    real = spectrum._piece_runs

    def faulty(bands, cap):
        for run, _ in real(bands, cap):
            yield run[:-1], run[-1][0]

    monkeypatch.setattr(spectrum, "_piece_runs", faulty)
    with pytest.raises(RuntimeError, match=r"closed \d+ of 20 bands") as error:
        suites.identity_suite(20, seed=5)
    assert type(error.value) is RuntimeError
    with pytest.raises(RuntimeError, match="internal error"):
        kth_eigenvalues(*zip(*polya_draws(20, 3)))


def test_exact_reports_pass_only_at_zero_slack():
    assert BoundReport("x", {}, 5.0, 5.0, exact=True).passed
    assert not BoundReport("x", {}, 5.0, 6.0, exact=True).passed
    assert not BoundReport("x", {}, 5.0, 4.0, exact=True).passed
    assert BoundReport("x", {}, 5.0, 6.0).passed


# ---------------------------------------------------------------------------
# input_repr by one template per signature
# ---------------------------------------------------------------------------


def ref_cell(value):
    return REF_RULES.get(type(value), str)(value)


REF_RULES = {
    float: lambda x: format(float(x), ".17g"),
    np.float64: lambda x: format(float(x), ".17g"),
    bool: lambda flag: "true" if flag else "false",
    np.bool_: lambda flag: "true" if flag else "false",
    dict: lambda inputs: ";".join([f"{key}={ref_cell(v)}" for key, v in inputs.items()]),
    tuple: lambda indices: ";".join(["%s,%s,%s" % t for t in indices]),
}

EDGE_INPUTS = [
    {"a": math.nan, "b": math.inf, "c": -math.inf, "d": -0.0},
    {"a": 5e-324, "b": np.float64(0.1), "c": np.float64(-0.0), "d": 2**64},
    {"a": 1.0 / 3.0, "b": -1e300, "c": 0, "d": -7},
    {"y": 1.0, "n": 2, "flag": True, "on": np.False_},
    {"note": 'a,"b"', "y": 2.5, "n": 3},
    {"note": ",", "y": np.float64(math.nan), "n": -1},
    {"100%": 1.5, "%d": 2, "s": "%s %%"},
    {"k": np.int64(5), "x": 1.0, "nested": {"q": 0.25}},
    {},
    {"a": 1, "b": 1.0},
    {"a": 1.0, "b": 1},
]


def test_input_templates_give_the_per_value_bytes():
    column = EDGE_INPUTS * 3
    assert _inputs_cells(column) == [REF_RULES[dict](d) for d in column]
    assert all(_CELL_RULES[dict](d) == REF_RULES[dict](d) for d in column)


def test_verify_csv_with_mixed_input_signatures():
    reports = [BoundReport(f"s{i}", d, 1.0, float(i)) for i, d in enumerate(EDGE_INPUTS)]
    lines = VERIFY.csv(reports).splitlines()[1:]
    for line, d in zip(lines, EDGE_INPUTS):
        cell = REF_RULES[dict](d)
        quoted = '"%s"' % cell.replace('"', '""') if "," in cell or '"' in cell else cell
        assert f",{quoted}," in line
