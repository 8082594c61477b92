"""Certified minimisation of the k-th eigenvalue over unit-volume boxes.

``optimize_k`` is a deterministic branch-and-bound in u = a1^2, v = a2^2
(a3^2 = 1/(uv)).  Each eigenvalue branch pi^2 (s1/u + s2/v + s3 uv), with
s = (i1^2, i2^2, i3^2), is convex in (log u, log v): over a cell its minimum
is the AM-GM value 3 pi^2 cbrt(s1 s2 s3) if that point lies inside, else the
least clamped 1-D minimiser on the four edges, and its maximum is its
largest corner value.  Minima are scaled by (1 - MARGIN) and maxima by
(1 + MARGIN); without that margin the bound at k = 2 lands 1.5e-16 above
the optimum.  The cover is [a1_lo^2, 1] x [a1_lo^2, 1/a1_lo] in ROOT_CELLS^2
log-uniform cells, a1_lo = ``a1_lower_bound()``: every box in it, sorted,
has a1 >= a1_lo, and only cells that meet the sorted domain u <= v <=
u^(-1/2) are kept.

At each point the k-th smallest branch value is at least the k-th smallest
branch minimum, which so bounds lambda_k over the cell.  Rows whose maximum
over a cell is at most the parent's bound are counted as ``below`` and
dropped, and the bound becomes the larger of the parent's and the
(k - below)-th smallest kept minimum.  A cell is pruned when its bound
exceeds the incumbent, finished when it exceeds the incumbent times
(1 - GAP_RTOL), and else split at its geometric midpoints.  So, up to the
rounding of the one ``kth_eigenvalue`` call at the returned box,
lambda_lower <= min of lambda_k over the domain <= lambda_star <=
lambda_lower (1 + GAP_RTOL).

The search is level-synchronous, from the root cells down: a level's cells
are bounded in chunks of whole cells, at most ``_BLOCK`` rows (or one cell)
a chunk, and the cells of one chunk share one incumbent.  A chunk's rows are
ordered by (cell, value, row), the order of ``np.lexsort((values, cell))``,
to read off each cell's need-th smallest value; the values hold no NaN.
From ``_KEY_SORT_ROWS`` = 1,024 rows on, where it is faster, that order is
one argsort of the unique int64 key (cell * n + rank) * n + row, with rank
the dense rank of the value among the n rows.  Equal values are common
(permuted index triples share their AM-GM minimum), and the key breaks their
ties by row as lexsort does, so the incumbent's path and every output byte
are the same by either sort.

A crossing optimum (a double eigenvalue: k = 3, 37, 61) costs about
GAP_RTOL^(-1/2) cells.  On the crossing curve a cell of width h has a bound
O(h) below lambda_k, so cells there finish only at h ~ GAP_RTOL; along the
curve lambda_k rises quadratically, so at width h every cell within about
sqrt(h) of the optimum is still open, h^(-1/2) of them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import a1_lower_bound
from .spectrum import (
    _BLOCK,
    DEFAULT_CANDIDATE_CAP,
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    ResourceLimitError,
    _band,
    _octant_bands,
    _redone_alone,
    kth_eigenvalue,
)

# Relative gap between the certified lower bound and lambda_star.
GAP_RTOL = 1e-9
# Outward relative margin on the closed-form branch bounds.
MARGIN = 1e-13
# Root cells per axis of the cover.
ROOT_CELLS = 8
# The most cells one search may bound; k = 3, 37 and 61 take about 0.3M.
CELL_BUDGET = 4_000_000
# The fewest rows that ``_kth_per_cell`` sorts by one int64 key; fewer sort
# faster by np.lexsort (2-core Xeon, numpy 2.4.6, lexsort against the key
# sort: 2.0 against 19 us at 30 rows, 11.6 against 31 at 300, 435 against
# 134 at 3,000 and 2,462 against 718 at 16,000).
_KEY_SORT_ROWS = 1024


class InsufficientSpanError(ValueError):
    """rate_fit was given too few records or too narrow a k range."""


@dataclass(frozen=True)
class OptimizerConfig:
    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    threads: int = 1


@dataclass(frozen=True)
class OptimalRecord:
    k: int
    cuboid: Cuboid | None
    lambda_star: float
    lambda_lower: float
    delta: float
    evaluations: int
    cells: int
    status: str

    @property
    def failed(self) -> bool:
        return self.cuboid is None


def branch_bounds(s, u0, u1, v0, v1) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds, with MARGIN, of each branch over its cell
    [u0, u1] x [v0, v1]; ``s`` is (3, n) and the sides broadcast to n."""
    a, b, c = s

    def f(u, v):
        return a / u + b / v + c * (u * v)

    def clip(x, lo, hi):
        return np.minimum(np.maximum(x, lo), hi)

    t = np.cbrt(a * b * c)
    pu, pv = a / t, b / t
    inside = (u0 <= pu) & (pu <= u1) & (v0 <= pv) & (pv <= v1)
    # min and max are exact: folded pairwise in place, they give the bits of
    # one reduction over the four arrays without stacking them.
    edge = np.minimum(f(u0, clip(np.sqrt(b / (c * u0)), v0, v1)),
                      f(u1, clip(np.sqrt(b / (c * u1)), v0, v1)))
    for v in (v0, v1):
        np.minimum(edge, f(clip(np.sqrt(a / (c * v)), u0, u1), v), out=edge)
    hi = np.maximum(f(u0, v0), f(u0, v1))
    np.maximum(hi, f(u1, v0), out=hi)
    np.maximum(hi, f(u1, v1), out=hi)
    lo = np.where(inside, 3.0 * t, edge)
    lo *= PI_SQUARED * (1.0 - MARGIN)
    hi *= PI_SQUARED * (1.0 + MARGIN)
    return lo, hi


def root_cells() -> np.ndarray:
    """Rows u0, u1, v0, v1 of the root cells that meet the sorted domain."""
    lo = a1_lower_bound()
    u = np.geomspace(lo * lo, 1.0, ROOT_CELLS + 1)
    v = np.geomspace(lo * lo, 1.0 / lo, ROOT_CELLS + 1)
    i, j = np.divmod(np.arange(ROOT_CELLS * ROOT_CELLS), ROOT_CELLS)
    box = np.array([u[i], u[i + 1], v[j], v[j + 1]])
    return box[:, _meets_domain(box)]


def _meets_domain(box: np.ndarray) -> np.ndarray:
    """v1 >= u0 and v0 <= u0^(-1/2), each within MARGIN."""
    u0, _, v0, v1 = box
    return (v1 >= u0 * (1.0 - MARGIN)) & (u0 * (v0 * v0) <= 1.0 + MARGIN)


def _kth_per_cell(values, cell, n_cells, need):
    """The rows sorted by (cell, value, row), the cells holding at least
    ``need`` rows, and the row of each such cell's need-th smallest value.

    ``values`` hold no NaN and ``cell`` is below ``n_cells``.  The order is
    ``np.lexsort((values, cell))``'s, so equal values keep their row order;
    from ``_KEY_SORT_ROWS`` rows on ``_cell_order`` finds it by one argsort
    of a unique int64 key.
    """
    order = _cell_order(values, cell, n_cells)
    counts = np.bincount(cell, minlength=n_cells)
    has = counts >= need
    return order, has, order[(np.cumsum(counts) - counts + need - 1)[has]]


def _cell_order(values, cell, n_cells):
    """``np.lexsort((values, cell))``: below ``_KEY_SORT_ROWS`` rows by it,
    else by one argsort of the key (cell * n + rank) * n + row, where rank is
    the dense rank of the value (equal values share one) and n the rows.

    Every key is below n_cells * n**2, and lexsort is kept where that passes
    2^63.  In a search it never does at the default candidate cap C = 24M: a
    chunk of many cells holds at most ``_BLOCK`` = 2^14 rows in at most
    CELL_BUDGET < 2^22 cells (2^50), one root cell at most C rows (C^2 <
    2^50), and one parent's children at most 4 C rows in 4 cells (64 C^2 <
    2^56); only C above 3.8e8 could pass it.
    """
    n = len(values)
    if n < _KEY_SORT_ROWS or n_cells * n * n > 1 << 63:
        return np.lexsort((values, cell))
    by_value = np.argsort(values)
    ordered = values[by_value]
    step = np.empty(n, np.int64)
    step[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty(n, np.int64)
    rank[by_value] = np.cumsum(step, out=step)
    key = np.multiply(cell, n, dtype=np.int64)
    key += rank
    key *= n
    key += np.arange(n)
    return np.argsort(key)


class _Cells(NamedTuple):
    """Open cells and their stored rows, (3, m) squared indices by cell."""

    box: np.ndarray
    bound: np.ndarray
    below: np.ndarray
    n_rows: np.ndarray
    s: np.ndarray


class _Search:
    """The incumbent (best, at point), finished bound and cells of a search."""

    def __init__(self, k: int, cap: int):
        self.k, self.cap, self.cells, self.lower = k, cap, 0, math.inf
        # lambda_k of the cube from its band: the record's one evaluation is
        # the kth_eigenvalue call at the returned box.
        self.best, self.point = _band(UNIT_CUBE, k, cap, from_zero=False)[2], (1.0, 1.0)

    def level(self, chunks) -> _Cells:
        """Bound each chunk (box, parent bound, below, s, cell of each row);
        join the cells left open, within the cell budget and candidate cap."""
        parts, stored = [], 0
        for chunk in chunks:
            self.cells += chunk[0].shape[1]
            if self.cells > CELL_BUDGET:
                raise ResourceLimitError(f"the search needs more than {CELL_BUDGET} cells")
            parts.append(self.bound(*chunk))
            stored += parts[-1].s.shape[1]
            if stored > self.cap:
                raise ResourceLimitError(
                    f"a level stores more than {self.cap} rows (the candidate cap)")
        return _Cells(*(np.concatenate(field, axis=-1) for field in zip(*parts)))

    def roots(self):
        """Runs of whole root cells with their rows, at most ``_BLOCK`` rows
        (or one cell) a chunk, like the chunks of ``split``.  A cell's rows
        are the branches whose value on the corner box (1/u1, 1/v1, u0 v0),
        their least over the cell, is at most best when the cell is reached.
        One ``_octant_bands`` pass bands the cells left; once a chunk lowers
        best, a new pass bands the cells after the current one."""
        cells = root_cells().T.tolist()
        boxes, rows, size, at = [], [], 0, 0
        while at < len(cells):
            best = self.best
            bands = [((1.0 / u1, 1.0 / v1, u0 * v0), 0.0, best * (1.0 + MARGIN))
                     for u0, u1, v0, v1 in cells[at:]]
            for _, _, t in _redone_alone(bands, lambda b: _octant_bands(b, self.cap),
                                         lambda band: next(_octant_bands([band], self.cap))):
                if rows and size + t.shape[1] > _BLOCK:
                    yield self._root_chunk(boxes, rows)
                    boxes, rows, size = [], [], 0
                boxes.append(cells[at])
                rows.append(t)
                size += t.shape[1]
                at += 1
                if self.best != best:
                    break
        yield self._root_chunk(boxes, rows)

    @staticmethod
    def _root_chunk(boxes, rows):
        """The chunk of root cells ``boxes`` with their index rows."""
        n = len(boxes)
        cell = np.repeat(np.arange(n), [t.shape[1] for t in rows])
        s = (np.concatenate(rows, axis=1) ** 2).astype(np.float64)
        return np.array(boxes).T, np.zeros(n), np.zeros(n, np.int64), s, cell

    def split(self, level: _Cells):
        """The children of runs of open cells, at most ``_BLOCK`` rows (or one
        parent's children) a chunk; a child takes its parent's rows."""
        off = np.concatenate(([0], np.cumsum(level.n_rows)))
        a = 0
        while a < len(level.bound):
            b = max(a + 1, int(np.searchsorted(off, off[a] + _BLOCK // 4, "right")) - 1)
            # The children of cell p are 4p .. 4p+3, split at its geometric midpoints.
            u0, u1, v0, v1 = np.repeat(level.box[:, a:b], 4, axis=1)
            um, vm = np.sqrt(u0 * u1), np.sqrt(v0 * v1)
            j = np.arange(4 * (b - a)) & 3
            hu, hv = (j & 1) == 1, j >= 2
            box = np.array([np.where(hu, um, u0), np.where(hu, u1, um),
                            np.where(hv, vm, v0), np.where(hv, v1, vm)])
            keep = _meets_domain(box)
            parent = np.repeat(np.arange(b - a), level.n_rows[a:b])
            child = (4 * parent + np.arange(4)[:, None]).ravel()
            take = keep[child]
            s = level.s[:, off[a]:off[b]]
            yield (box[:, keep], np.repeat(level.bound[a:b], 4)[keep],
                   np.repeat(level.below[a:b], 4)[keep],
                   np.concatenate((s, s, s, s), axis=1)[:, take], (np.cumsum(keep) - 1)[child[take]])
            a = b

    def bound(self, box, parent, below, s, cell) -> _Cells:
        """Bound the cells from their rows, offer their candidates, and
        return the cells left open."""
        n = box.shape[1]
        lo, hi = branch_bounds(s, *box[:, cell])
        under = hi <= parent[cell]
        below = below + np.bincount(cell[under], minlength=n)
        keep = ~under & (lo <= self.best)
        s, cell, lo = s[:, keep], cell[keep], lo[keep]
        need = self.k - below
        order, has, pick = _kth_per_cell(lo, cell, n, need)
        bound = np.full(n, math.inf)
        bound[has] = np.maximum(parent[has], lo[pick])
        live = bound <= self.best
        done = live & (bound > self.best * (1.0 - GAP_RTOL))
        self.lower = min(self.lower, float(bound[done].min(initial=math.inf)))

        u0, u1, v0, v1 = box
        self._offer(live, np.sqrt(u0 * u1), np.sqrt(v0 * v1), parent, need, s, cell)
        # The AM-GM point of the row that sets each live cell's bound.
        a, b, c = s[:, pick[live[has]]]
        t = np.cbrt(a * b * c)
        pu, pv = np.full(n, math.nan), np.full(n, math.nan)
        pu[live], pv[live] = a / t, b / t
        inside = live & (u0 <= pu) & (pu <= u1) & (v0 <= pv) & (pv <= v1)
        self._offer(inside, pu, pv, parent, need, s, cell)

        open_ = live & ~done
        rows = order[open_[cell[order]]]
        return _Cells(box[:, open_], bound[open_], below[open_],
                      np.bincount(cell, minlength=n)[open_], s[:, rows])

    def _offer(self, at, pu, pv, parent, need, s, cell) -> None:
        """Lower the incumbent to the need-th smallest kept value at the point
        (pu, pv) of a cell in ``at``.  Rows counted below are at most the
        parent's bound and dropped rows exceed the incumbent, so a value at
        least the parent's bound and below the incumbent is lambda_k there."""
        rows = at[cell]
        c = cell[rows]
        u, v = pu[c], pv[c]
        values = PI_SQUARED * (s[0, rows] / u + s[1, rows] / v + s[2, rows] * (u * v))
        _, has, pick = _kth_per_cell(values, c, len(at), need)
        x = np.full(len(at), math.inf)
        x[has] = values[pick]
        x[x < parent] = math.inf
        j = int(np.argmin(x))
        if x[j] < self.best:
            self.best, self.point = float(x[j]), (float(pu[j]), float(pv[j]))


def optimize_k(k: int, config: OptimizerConfig = OptimizerConfig()) -> OptimalRecord:
    """The optimal box for the k-th eigenvalue, lambda_k there, and a lower
    bound on the minimum within GAP_RTOL of it (see the module docstring)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    search = _Search(k, config.candidate_cap)
    level = search.level(search.roots())
    while len(level.bound):
        level = search.level(search.split(level))
    cuboid = Cuboid.from_sides(math.sqrt(search.point[0]), math.sqrt(search.point[1]))
    value = kth_eigenvalue(cuboid, k, config.candidate_cap).value
    return OptimalRecord(k, cuboid, value, search.lower, cuboid.a3 - 1.0, 1, search.cells, "certified")


def _sweep_one(args: tuple[int, OptimizerConfig]) -> OptimalRecord:
    """``optimize_k`` with failures isolated; one progress line to stderr."""
    k, config = args
    start = time.perf_counter()
    try:
        record = optimize_k(k, config)
    except Exception as exc:  # per-k failures must not kill the sweep
        record = OptimalRecord(k, None, math.nan, math.nan, math.nan, 0, 0, f"failed: {exc}")
    seconds = time.perf_counter() - start
    print(f"k={k}: {record.status}, {record.cells} cells, {seconds:.3f} s", file=sys.stderr, flush=True)
    return record


def _pool_size(threads: int, n_jobs: int) -> int:
    """Worker processes for a sweep of ``n_jobs`` k values.

    A fork-started pool starts every worker up front, so the count never
    exceeds the number of jobs or of CPUs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, n_jobs, os.cpu_count() or 1)


def sweep(k_set, config: OptimizerConfig = OptimizerConfig()) -> list[OptimalRecord]:
    """One record per k, in input order; per-k failures are isolated.

    With ``config.threads > 1`` the k values run in worker processes, largest
    k first so that the longest job does not start last; results are placed
    back in input order, so output is independent of the worker count.
    """
    ks = [int(k) for k in k_set]
    if not ks:
        raise ValueError("k_set must be nonempty")
    if any(k < 1 for k in ks):
        raise ValueError(f"all k must be >= 1, got {ks}")
    jobs = [(k, config) for k in ks]
    workers = _pool_size(config.threads, len(ks))
    if workers == 1:
        return [_sweep_one(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(ks)), key=lambda i: -ks[i])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(_sweep_one, [jobs[i] for i in order])))
    return [done[i] for i in range(len(ks))]


@dataclass(frozen=True)
class RateFitInfo:
    n_used: int
    stderr: float
    reference_exponent: float = -23.0 / 258.0


def rate_fit(records) -> tuple[float, RateFitInfo]:
    """Least-squares slope of log(delta_k) against log(k).

    Uses records with delta > 1e-6; purely descriptive against the proven
    decay reference exponent -23/258.
    """
    recs = [r for r in records if r.cuboid is not None]
    if len(recs) < 10:
        raise InsufficientSpanError(f"need >= 10 records, got {len(recs)}")
    ks = [r.k for r in recs]
    if max(ks) < 100 * min(ks):
        raise InsufficientSpanError(
            f"k range [{min(ks)}, {max(ks)}] spans fewer than 2 decades"
        )
    pts = [(math.log(r.k), math.log(r.delta)) for r in recs if r.delta > 1e-6]
    if len(pts) < 2:
        raise InsufficientSpanError("fewer than 2 records with delta > 1e-6")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(pts) - 2, 1)
    denom = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(float((resid**2).sum()) / dof / denom) if denom > 0 else math.inf
    return float(slope), RateFitInfo(n_used=len(pts), stderr=stderr)
