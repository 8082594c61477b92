"""Minimise the k-th eigenvalue over unit-volume boxes.

The objective is continuous but only piecewise smooth (eigenvalue branches
cross), so refinement uses a derivative-free simplex with reflection and
contraction only, seeded from the best basins of a coarse grid.  Relabelling
symmetry folds every candidate into the fundamental domain a1 <= a2 <= a3,
so the only hard constraint is the lower bound on the shortest side.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bounds import a1_lower_bound
from .spectrum import (
    DEFAULT_CANDIDATE_CAP,
    Cuboid,
    kth_eigenvalue,
)

# Basin results with lambda within this relative gap count as agreeing.
LAMBDA_AGREE_RTOL = 1e-8
# Agreeing basins whose sides differ by more than this flag non-uniqueness.
SIDE_DISTINCT_TOL = 1e-4


class InsufficientSpanError(ValueError):
    """rate_fit was given too few records or too narrow a k range."""


@dataclass(frozen=True)
class SearchBox:
    """Fundamental domain: a1 in [floor, 1], a2 in [a1, sqrt(1/a1)]."""

    a1_lo: float = a1_lower_bound()
    a1_hi: float = 1.0

    def a2_bounds(self, a1: float) -> tuple[float, float]:
        return (a1, math.sqrt(1.0 / a1))

    @property
    def a3_cap(self) -> float:
        return 1.0 / self.a1_lo**2


@dataclass(frozen=True)
class OptimizerConfig:
    grid_n: int = 64
    basins: int = 8
    max_iter: int = 500
    side_tol: float = 1e-9
    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    threads: int = 1


@dataclass(frozen=True)
class OptimalRecord:
    k: int
    cuboid: Cuboid | None
    lambda_star: float
    delta: float
    evaluations: int
    restarts_agreeing: int
    unique_within_tol: bool
    status: str

    @property
    def failed(self) -> bool:
        return self.cuboid is None


class _Objective:
    """Folded, counted evaluation map used by the grid and simplex stages."""

    def __init__(self, k: int, box: SearchBox, candidate_cap: int):
        self.k = k
        self.box = box
        self.candidate_cap = candidate_cap
        self.evaluations = 0

    def __call__(self, a1: float, a2: float) -> float:
        try:
            c = Cuboid.from_sides(a1, a2)
        except ValueError:
            return math.inf
        if c.a1 < self.box.a1_lo * (1.0 - 1e-12):
            return math.inf
        self.evaluations += 1
        return kth_eigenvalue(c, self.k, self.candidate_cap).value


def _grid_points(box: SearchBox, n: int) -> tuple[np.ndarray, np.ndarray]:
    a1s = np.linspace(box.a1_lo, box.a1_hi, n)
    grid_a1 = np.empty((n, n))
    grid_a2 = np.empty((n, n))
    for i, a1 in enumerate(a1s):
        lo, hi = box.a2_bounds(float(a1))
        grid_a1[i] = a1
        grid_a2[i] = np.linspace(lo, hi, n)
    return grid_a1, grid_a2


def _select_basins(values: np.ndarray, n_basins: int) -> list[tuple[int, int]]:
    """Best grid cells, greedily skipping neighbours of already-chosen ones."""
    n = values.shape[0]
    order = np.argsort(values, axis=None, kind="stable")
    chosen: list[tuple[int, int]] = []
    for flat in order:
        i, j = divmod(int(flat), n)
        if not math.isfinite(values[i, j]):
            break
        if any(abs(i - ci) <= 1 and abs(j - cj) <= 1 for ci, cj in chosen):
            continue
        chosen.append((i, j))
        if len(chosen) == n_basins:
            break
    return chosen


def _simplex_refine(
    fn: _Objective,
    start: tuple[float, float],
    scale: float,
    side_tol: float,
    max_iter: int,
) -> tuple[tuple[float, float], float, bool]:
    """Reflection/contraction simplex descent from ``start``.

    No expansion step: the objective has kinks at eigenvalue crossings and
    overshooting loses more than it gains.  Returns (point, value, converged).
    """
    pts = [
        np.array(start),
        np.array((start[0] + scale, start[1])),
        np.array((start[0], start[1] + scale)),
    ]
    vals = [fn(*p) for p in pts]
    converged = False
    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: (vals[i], pts[i][0], pts[i][1]))
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        span = max(
            np.abs(pts[1] - pts[0]).max(),
            np.abs(pts[2] - pts[0]).max(),
            np.abs(pts[2] - pts[1]).max(),
        )
        if span <= side_tol:
            converged = True
            break
        centroid = (pts[0] + pts[1]) / 2.0
        reflected = centroid + (centroid - pts[2])
        f_reflected = fn(*reflected)
        if f_reflected < vals[1]:
            pts[2], vals[2] = reflected, f_reflected
            continue
        contracted = centroid + 0.5 * (pts[2] - centroid)
        f_contracted = fn(*contracted)
        if f_contracted < vals[2]:
            pts[2], vals[2] = contracted, f_contracted
            continue
        # Shrink toward the best vertex.
        for i in (1, 2):
            pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
            vals[i] = fn(*pts[i])
    best = min(range(3), key=lambda i: (vals[i], pts[i][0], pts[i][1]))
    return (float(pts[best][0]), float(pts[best][1])), vals[best], converged


def optimize_k(k: int, config: OptimizerConfig = OptimizerConfig()) -> OptimalRecord:
    """Best box found for the k-th eigenvalue over the search domain."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    box = SearchBox()
    fn = _Objective(k, box, config.candidate_cap)
    n = config.grid_n
    grid_a1, grid_a2 = _grid_points(box, n)
    values = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            values[i, j] = fn(float(grid_a1[i, j]), float(grid_a2[i, j]))
    seeds = _select_basins(values, config.basins)
    scale = 0.5 * (box.a1_hi - box.a1_lo) / max(n - 1, 1)

    results = []
    for i, j in seeds:
        start = (float(grid_a1[i, j]), float(grid_a2[i, j]))
        point, value, converged = _simplex_refine(
            fn, start, scale, config.side_tol, config.max_iter
        )
        c = Cuboid.from_sides(*point)
        results.append((value, c, converged))

    best_value = min(r[0] for r in results)
    agreeing = [
        r for r in results if r[0] <= best_value * (1.0 + LAMBDA_AGREE_RTOL)
    ]
    # Deterministic tie-break: report the box closest to the cube.
    agreeing.sort(key=lambda r: (r[1].a1, r[1].a2), reverse=True)
    value, cuboid, converged = agreeing[0]
    unique = all(
        max(abs(r[1].a1 - cuboid.a1), abs(r[1].a2 - cuboid.a2), abs(r[1].a3 - cuboid.a3))
        <= SIDE_DISTINCT_TOL
        for r in agreeing
    )
    return OptimalRecord(
        k=k,
        cuboid=cuboid,
        lambda_star=value,
        delta=cuboid.a3 - 1.0,
        evaluations=fn.evaluations,
        restarts_agreeing=len(agreeing),
        unique_within_tol=unique,
        status="converged" if converged else "max_iter",
    )


def _sweep_one(args: tuple[int, OptimizerConfig]) -> OptimalRecord:
    k, config = args
    try:
        return optimize_k(k, config)
    except Exception as exc:  # per-k failures must not kill the sweep
        return OptimalRecord(
            k=k,
            cuboid=None,
            lambda_star=math.nan,
            delta=math.nan,
            evaluations=0,
            restarts_agreeing=0,
            unique_within_tol=False,
            status=f"failed: {exc}",
        )


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
    jobs = [(k, replace(config, threads=1)) for k in ks]
    workers = _pool_size(config.threads, len(ks))
    if workers == 1:
        return [_sweep_one(job) for job in jobs]
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
