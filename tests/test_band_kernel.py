"""The blocked band kernel equals the per-slice band kernel it replaced.

The reference below is the per-slice ``_octant_band`` with its
``_slice_third_counts``, and the argsort selection that read it, copied
from the code before the band kernel took the blocks of ``count_upto``.
Bands, k-th eigenvalues and spectra must match it bit for bit, including
with tiny blocks and with width estimates that force every block to widen.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenbox import spectrum
from eigenbox.bounds import a1_lower_bound
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    DEGENERACY_RTOL,
    PI_SQUARED,
    Cuboid,
    ResourceLimitError,
    SpectralPoint,
    UNIT_CUBE,
    _nmax_scalar,
    _nmax_vec,
    _octant_bands,
    _weyl_guess,
    kth_eigenvalue,
    spectrum_points,
)

from gridoracle import _row_eigenvalues

EXTRA_BOXES = [Cuboid.from_sides(0.2, 0.5), Cuboid.from_sides(0.05, 1.0), UNIT_CUBE]
FIXED_BOXES = [Cuboid.from_sides(0.7, 0.9), *EXTRA_BOXES]


@st.composite
def boxes(draw):
    """Boxes of the search domain a1 <= a2 <= a3, plus two flat ones and the cube."""
    if draw(st.booleans()):
        return draw(st.sampled_from(EXTRA_BOXES))
    a1 = draw(st.floats(a1_lower_bound(), 1.0))
    a2 = draw(st.floats(a1, math.sqrt(1.0 / a1)))
    return Cuboid.from_sides(a1, a2)


# ---------------------------------------------------------------------------
# Reference: the per-slice band kernel and its selection.
# ---------------------------------------------------------------------------


def ref_slice_third_counts(c1, q2, q3, lam_eff, cap):
    rem = lam_eff / PI_SQUARED - c1 - q3
    width = int(math.sqrt(max(rem, 0.0) / q2)) + 2
    if width > cap:
        raise ResourceLimitError(
            f"a slice below lambda={lam_eff:.6g} spans more than {cap} columns (the candidate cap)"
        )
    if width <= 24:
        counts = []
        i2 = 1
        while True:
            n = _nmax_scalar(c1 + float(i2 * i2) * q2, q3, lam_eff)
            if n == 0:
                break
            counts.append(n)
            i2 += 1
        return np.asarray(counts, dtype=np.int64)
    while True:
        i2 = np.arange(1, width + 1, dtype=np.int64)
        t2 = i2.astype(np.float64)
        c12 = c1 + (t2 * t2) * q2
        g = _nmax_vec(c12, q3, lam_eff)
        if g[-1] == 0:
            return g
        width *= 2


def ref_octant_band(inv, lo_eff, hi_eff, cap):
    q1, q2, q3 = inv
    below = 0
    size = 0
    tops, floors = [], []
    i1 = 1
    while True:
        c1 = float(i1 * i1) * q1
        top = ref_slice_third_counts(c1, q2, q3, hi_eff, cap)
        n_top = int(top.sum())
        if n_top == 0:
            break
        floor = np.zeros_like(top)
        if PI_SQUARED * (c1 + q2 + q3) <= lo_eff:
            g = ref_slice_third_counts(c1, q2, q3, lo_eff, cap)[: len(top)]
            floor[: len(g)] = g
        n_floor = int(floor.sum())
        below += n_floor
        size += n_top - n_floor
        if size > cap:
            raise ResourceLimitError(
                f"band ({lo_eff:.6g}, {hi_eff:.6g}] holds more than "
                f"{cap} candidates (the candidate cap)"
            )
        tops.append(top)
        floors.append(floor)
        i1 += 1
    if not tops:
        return below, np.empty(0), np.empty((0, 3), dtype=np.int64)
    lengths = [len(t) for t in tops]
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i1 = np.repeat(np.arange(1, len(tops) + 1, dtype=np.int64), lengths)
    i2 = np.arange(len(offsets), dtype=np.int64) - offsets + 1
    floor = np.concatenate(floors)
    reps = np.concatenate(tops) - floor
    nz = reps > 0
    i1, i2, floor, reps = i1[nz], i2[nz], floor[nz], reps[nz]
    t1 = i1.astype(np.float64)
    t2 = i2.astype(np.float64)
    c12 = np.repeat((t1 * t1) * q1 + (t2 * t2) * q2, reps)
    rows = np.empty((size, 3), dtype=np.int64)
    rows[:, 0] = np.repeat(i1, reps)
    rows[:, 1] = np.repeat(i2, reps)
    rows[:, 2] = np.arange(size, dtype=np.int64)
    rows[:, 2] += np.repeat(floor + 1 - (np.cumsum(reps) - reps), reps)
    t3 = rows[:, 2].astype(np.float64)
    return below, PI_SQUARED * (c12 + (t3 * t3) * q3), rows


def ref_sorted_band(cuboid, k, cap, from_zero):
    guess = _weyl_guess(cuboid, k)
    margin = min(2.0 * k ** (-1.0 / 3.0), 1.0)
    down = margin
    up = min(margin, 0.75)
    while True:
        lo = 0.0 if from_zero else max(guess * (1.0 - down), 0.0)
        hi = guess * (1.0 + up)
        below, values, rows = ref_octant_band(cuboid.inv_sq, lo, hi, cap)
        order = np.argsort(values)
        values = values[order]
        j = k - 1 - below
        if j < 0 or (j < len(values) and values[j] * (1.0 - DEGENERACY_RTOL) <= lo):
            down *= 2.0
        elif j >= len(values) or values[j] * (1.0 + DEGENERACY_RTOL) > hi:
            up = margin if up < margin else 2.0 * up
        else:
            return below, values, rows, order


def ref_point(values, rows, order, at):
    value = float(values[at])
    start = int(np.searchsorted(values, value * (1.0 - DEGENERACY_RTOL), side="left"))
    stop = int(np.searchsorted(values, value * (1.0 + DEGENERACY_RTOL), side="right"))
    indices = tuple(sorted(map(tuple, rows[order[start:stop]].tolist())))
    return SpectralPoint(value=value, indices=indices), stop


def ref_kth(cuboid, k, cap=DEFAULT_CANDIDATE_CAP):
    below, values, rows, order = ref_sorted_band(cuboid, k, cap, from_zero=False)
    return ref_point(values, rows, order, k - 1 - below)[0]


def ref_spectrum(cuboid, k_max, cap=DEFAULT_CANDIDATE_CAP):
    _, values, rows, order = ref_sorted_band(cuboid, k_max, cap, from_zero=True)
    points = []
    covered = 0
    while covered < k_max:
        point, covered = ref_point(values, rows, order, covered)
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_band(cuboid, lo, hi):
    band = (cuboid.inv_sq, lo, hi)
    check_band_output(next(_octant_bands([band], DEFAULT_CANDIDATE_CAP)), band)


def check_band_output(output, band):
    below, values, triples = output
    ref_below, ref_values, ref_rows = ref_octant_band(*band, DEFAULT_CANDIDATE_CAP)
    assert below == ref_below
    assert triples.shape == (3, len(values))
    assert np.array_equal(np.sort(values), np.sort(ref_values))
    assert sorted(zip(*triples.tolist())) == sorted(map(tuple, ref_rows.tolist()))
    # Each value is the eigenvalue of its own triple.
    order = np.lexsort(triples)
    ref_order = np.lexsort(ref_rows.T)
    assert np.array_equal(values[order], ref_values[ref_order])


def check_all(cuboid, ks, k_max):
    for k in ks:
        assert kth_eigenvalue(cuboid, k) == ref_kth(cuboid, k)
    assert spectrum_points(cuboid, k_max) == ref_spectrum(cuboid, k_max)
    for k, lo_frac in [(1, 0.0), (30, 0.5), (300, 0.9), (600, 0.0)]:
        hi = _weyl_guess(cuboid, k)
        check_band(cuboid, hi * lo_frac, hi)


@given(cuboid=boxes(), k=st.sampled_from([1, 2, 3, 5, 8, 13, 16, 20, 64, 300, 1024, 4096]))
@example(cuboid=EXTRA_BOXES[1], k=8)
@example(cuboid=UNIT_CUBE, k=300)
@settings(max_examples=100)
def test_kth_eigenvalue_equals_reference(cuboid, k):
    assert kth_eigenvalue(cuboid, k) == ref_kth(cuboid, k)


@given(cuboid=boxes(), k_max=st.sampled_from([1, 7, 40, 500]))
@settings(max_examples=15)
def test_spectrum_points_equal_reference(cuboid, k_max):
    assert spectrum_points(cuboid, k_max) == ref_spectrum(cuboid, k_max)


@given(
    cuboid=boxes(),
    k=st.integers(1, 5000),
    lo_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(cuboid=UNIT_CUBE, k=1, lo_frac=0.5)
@example(cuboid=UNIT_CUBE, k=2000, lo_frac=0.99)
@example(cuboid=EXTRA_BOXES[1], k=400, lo_frac=0.99)
@settings(max_examples=100)
def test_band_equals_reference(cuboid, k, lo_frac):
    # hi is the Weyl guess for the k-th eigenvalue: below the first one for
    # small k on some boxes, so the band may be empty.
    hi = _weyl_guess(cuboid, k)
    check_band(cuboid, hi * lo_frac, hi)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_equal_reference(block, monkeypatch):
    # Blocks this small cut the octant into many pieces, one column each at 1.
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    for cuboid in FIXED_BOXES:
        check_all(cuboid, ks=(1, 5, 20, 300), k_max=200)


def test_short_width_estimates_widen(monkeypatch):
    # Every block's first guess is one column, so every block must widen
    # until its first row's last column is empty.
    monkeypatch.setattr(spectrum, "_slice_width", lambda rem, q2: 1)
    for cuboid in FIXED_BOXES:
        check_all(cuboid, ks=(1, 5, 20, 300), k_max=200)


def test_a_band_spans_runs_between_its_neighbours(monkeypatch):
    # At _BLOCK = 128 the big band's pieces fill three runs: the first one
    # shared with the band before it, the last one with the band after it.
    monkeypatch.setattr(spectrum, "_BLOCK", 128)
    g = _weyl_guess(FIXED_BOXES[0], 3000)
    small, big = (UNIT_CUBE.inv_sq, 0.0, 30.0), (FIXED_BOXES[0].inv_sq, 0.8 * g, 1.2 * g)
    bands = [small, big, small]
    runs = list(spectrum._piece_runs(bands, DEFAULT_CANDIDATE_CAP))
    members = [{b for b, *_ in run} for run, _ in runs]
    assert len(members) >= 3 and members[0] == {0, 1} and members[-1] == {1, 2}
    assert all(m == {1} for m in members[1:-1])
    # Band 0 closes with the first run, band 1 and 2 with the last one.
    assert [closed for _, closed in runs] == [1] * (len(runs) - 1) + [3]
    for output, band in zip(_octant_bands(bands, DEFAULT_CANDIDATE_CAP), bands, strict=True):
        check_band_output(output, band)


def test_bands_without_pieces_close_in_one_empty_run():
    bands = [(UNIT_CUBE.inv_sq, 0.0, 0.0), (FIXED_BOXES[0].inv_sq, 1.0, 1.0)]
    assert list(spectrum._piece_runs(bands, DEFAULT_CANDIDATE_CAP)) == [([], 2)]
    for below, values, triples in _octant_bands(bands, DEFAULT_CANDIDATE_CAP):
        assert below == 0 and values.shape == (0,) and triples.shape == (3, 0)


@given(cuboid=boxes())
@example(cuboid=EXTRA_BOXES[1])
@example(cuboid=Cuboid.from_sides(a1_lower_bound(), a1_lower_bound() ** -0.5))
@settings(max_examples=20)
def test_small_k_equals_matrix_oracle(cuboid):
    # The triples (1, 1, i3), i3 <= 20, bound lambda_20 from above, so every
    # triple below that bound lies in the box's own index ranges.
    q1, q2, q3 = cuboid.inv_sq
    threshold = PI_SQUARED * (q1 + q2 + 400.0 * q3) * (1.0 + 1e-9)
    r = math.sqrt(threshold) / math.pi
    axes = [np.arange(1, int(a * r) + 2, dtype=np.float64) for a in cuboid.sides]
    trips = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    sq = (trips[:, 0] ** 2, trips[:, 1] ** 2, trips[:, 2] ** 2)
    oracle = _row_eigenvalues(cuboid.a1, np.array([cuboid.a2]), sq, threshold, 20)[0]
    for k in range(1, 21):
        assert kth_eigenvalue(cuboid, k).value == pytest.approx(oracle[k - 1], rel=1e-12)


@pytest.mark.parametrize(
    "sides, k, cap",
    [
        ((0.05, 1.0), 8, 500),  # band cap
        ((0.05, 1.0), 1, 10),  # band cap; the first slice spans 8 columns
        ((0.05, 1.0), 300, 1000),  # band cap on the widened band: 32, then 1406 points
        ((0.7, 0.9), 1, 1),  # any slice spans two columns
    ],
)
def test_cap_messages_equal_reference(sides, k, cap):
    cuboid = Cuboid.from_sides(*sides)
    with pytest.raises(ResourceLimitError) as ref:
        ref_kth(cuboid, k, cap)
    with pytest.raises(ResourceLimitError, match="the candidate cap") as new:
        kth_eigenvalue(cuboid, k, cap)
    assert str(new.value) == str(ref.value)


def test_caps_are_exact():
    # A band of exactly cap points passes and one more raises; the first
    # slice of (0.05, 1) at k = 1 spans 8 columns, so a cap of 8 passes the
    # column check and falls to the band cap, and 7 does not.
    box = Cuboid.from_sides(0.7, 0.9)
    size = len(spectrum._band(box, 64, DEFAULT_CANDIDATE_CAP, from_zero=False)[0])
    assert kth_eigenvalue(box, 64, size) == ref_kth(box, 64, size)
    with pytest.raises(ResourceLimitError, match=r"^band "):
        kth_eigenvalue(box, 64, size - 1)
    thin = Cuboid.from_sides(0.05, 1.0)
    with pytest.raises(ResourceLimitError, match=r"^band "):
        kth_eigenvalue(thin, 1, 8)
    with pytest.raises(ResourceLimitError, match=r"^a slice .* more than 7 columns"):
        kth_eigenvalue(thin, 1, 7)


class _Stop(Exception):
    pass


def test_spectrum_band_memory_per_candidate(monkeypatch):
    # DEFAULT_CANDIDATE_CAP's comment and the README rest on this figure.
    # The peak is read when the first spectral point would be built, so the
    # band, its index triples and the sort order are all alive.
    box, k_max = Cuboid.from_sides(0.7, 0.9), 500_000
    candidates = len(spectrum._band(box, k_max, DEFAULT_CANDIDATE_CAP, from_zero=True)[0])

    def stop(triples):
        raise _Stop

    monkeypatch.setattr(spectrum, "_indices", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            spectrum_points(box, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / candidates <= 41.0
